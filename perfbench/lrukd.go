package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running lrukd child.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // exec to serving line
	done  chan struct{} // closed once the process has exited and been reaped
	err   error         // Wait's result, valid after done
	eof   chan struct{} // closed once the child's output is read to the end

	mu  sync.Mutex
	out bytes.Buffer // stdout and stderr after the serving line
}

// serveTimeout bounds lrukd's start-up, load and first checkpoint included.
const serveTimeout = 60 * time.Second

// startLrukd execs lrukd and waits for its serving line. The child is
// killed if this process dies first.
func startLrukd(ctx context.Context, bin string, args []string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	cmd.Stderr = pw
	d := &daemon{cmd: cmd, done: make(chan struct{}), eof: make(chan struct{})}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		_ = pr.Close()
		_ = pw.Close()
		return nil, fmt.Errorf("exec lrukd: %w", err)
	}
	_ = pw.Close() // the child holds its own copy
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()

	serving := make(chan string, 1)
	go func() {
		defer close(d.eof)
		defer pr.Close()
		br := bufio.NewReader(pr)
		sent := false
		for {
			line, err := br.ReadString('\n')
			if addr, ok := strings.CutPrefix(line, "lrukd: serving on "); ok && !sent {
				addr, _, _ = strings.Cut(addr, " ")
				serving <- addr
				sent = true
			} else {
				d.mu.Lock()
				d.out.WriteString(line)
				d.mu.Unlock()
			}
			if err != nil {
				return
			}
		}
	}()

	select {
	case addr := <-serving:
		d.setup = time.Since(began)
		d.addr = addr
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("lrukd exited before serving (%v): %s", d.err, d.output())
	case <-time.After(serveTimeout):
		d.kill()
		return nil, fmt.Errorf("lrukd not serving after %v: %s", serveTimeout, d.output())
	}
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.out.String())
}

// stop drains lrukd with SIGTERM and reports an unclean shutdown: a
// non-zero exit, or no "clean shutdown" line (lrukd's own leak check).
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("lrukd did not drain within 30s")
	}
	<-d.eof
	if d.err != nil {
		return fmt.Errorf("lrukd: %v: %s", d.err, d.output())
	}
	if !strings.Contains(d.output(), "lrukd: clean shutdown") {
		return fmt.Errorf("lrukd: no clean shutdown: %s", d.output())
	}
	return nil
}

// kill ends lrukd at once and reaps it; safe after stop.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}

// clockTick is the unit of the CPU times in /proc/<pid>/stat: USER_HZ,
// which Linux fixes at 100 for every user-space ABI.
const clockTick = 10 * time.Millisecond

// cpuTime reads the user plus system CPU time a process has used, all its
// threads included.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseCPUTime(string(b))
}

// parseCPUTime takes utime and stime, fields 14 and 15 of a stat line.
// Fields are counted after the parenthesised command name, which may
// itself hold spaces.
func parseCPUTime(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no command name")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("stat: too few fields")
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: cpu time %q: %w", s, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * clockTick, nil
}
