// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload against the page service over loopback TCP and prints
// the workload's metrics, checking every reply on the way.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	perfbench --workload zipf-get --seed 1 --seconds 10 --trace 0 --lrukd <bin> --work <dir>
//
// With --trace 0 it execs lrukd from the tree with its default flags (plus
// any the workload names), loads it from one process over the workload's
// connections, and reports the end-to-end metrics. With --trace 1 it
// assembles the same stack in-process from db.Open and server.New, times
// calls into each layer from this package's own wrappers, and reports the
// per-layer metrics and a self-time table instead. The last line of
// standard output is always one JSON object: correct, attempted, failed
// and metrics. Workloads, metrics and what each layer metric should move
// are listed in spec.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// setupRuns is how many times a run starts lrukd; setup_s is the median.
const setupRuns = 5

// warmup is run before every measured phase, so the pool is full and
// lazily built state exists before timing starts.
const warmup = time.Second

// holdoutSeed names the seed on which a claim made while tuning against
// seed must be checked again (a seed not used while the change was
// written).
func holdoutSeed(seed uint64) uint64 { return seed + 1_000_003 }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eMetrics are the end-to-end metrics, reported for every workload.
// op_p50_us is the median latency of the workload's main op: GET on
// zipf-get, UPDATE on durable-rw, SCAN on scan-mix. Throughput, tail
// latency, GET latency beside scans and CPU per request are in the detail
// line only: on a shared two-vCPU host they spread 0.2 to 1.1 (IQR over
// median) across ten runs as the host's speed changed from minute to
// minute, more than the 0.25 bound a metric may have.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"op_p50_us", "us"},
	{"disk_reads_per_op", "reads/op"},
	{"server_rss_mb", "MiB"},
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name (see spec.json)")
		seed    = fs.Uint64("seed", 1, "seed of the request streams")
		seconds = fs.Int("seconds", 10, "length of the measured phase")
		traced  = fs.Int("trace", 0, "1 = in-process traced run reporting per-layer metrics")
		bin     = fs.String("lrukd", "", "lrukd binary built from the tree")
		work    = fs.String("work", "", "directory for data directories and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || *work == "" || (*traced == 0 && *bin == "") {
		fmt.Fprintln(stderr, "perfbench: need --workload zipf-get|durable-rw|scan-mix, --seconds >= 1, --trace 0|1, --work, and --lrukd for --trace 0")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d check_seed=%d seconds=%d trace=%d\n",
		w.name, *seed, holdoutSeed(*seed), *seconds, *traced)

	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	if *traced == 1 {
		res, err = runTraced(ctx, w, *seed, dur, *work, stdout)
	} else {
		res, err = runE2E(ctx, w, *seed, dur, *bin, *work, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: run failed its output checks")
		return 1
	}
	return 0
}

// loadRun is one warm-up plus measured phase of a workload.
type loadRun struct {
	t        tally // measured phase, lanes merged
	wall     time.Duration
	lateness []int64 // open loop: generator lateness of measured GETs, ns
	// warmOps and endOps are each lane's request count after the warm-up
	// and after the measured phase (closed loop), for an exact replay.
	warmOps, endOps []int
}

// drive runs the workload's warm-up and measured phase over targets (one
// per lane) from fresh seeded streams. between runs after the warm-up,
// before timing starts. With replay set, a closed loop issues exactly the
// requests replay issued instead of running for dur.
func drive(ctx context.Context, w workload, targets []target, seed uint64, dur time.Duration, replay *loadRun, between func() error) (loadRun, error) {
	var fills []byte
	if w.updatePct > 0 {
		for i := range targets {
			fills = append(fills, fillOf(i))
		}
	}
	lanes := make([]*lane, len(targets))
	for i, t := range targets {
		lanes[i] = &lane{t: t, fill: fillOf(i), fills: fills}
	}
	var r loadRun
	if w.scanRate > 0 {
		s := newStream(seed, 1, 0)
		runOpen(ctx, w, lanes, s, warmup, false)
		if err := between(); err != nil {
			return r, err
		}
		o := runOpen(ctx, w, lanes, s, dur, true)
		r.t = o.scans
		r.t.merge(o.gets)
		r.wall, r.lateness = o.wall, o.lateness
		return r, ctx.Err()
	}
	streams := make([]*stream, len(lanes))
	for i := range streams {
		streams[i] = newStream(seed, i, w.updatePct)
	}
	warm, meas := phase{dur: warmup}, phase{dur: dur, record: true}
	if replay != nil {
		warm.counts, meas.counts = replay.warmOps, replay.endOps
	}
	runClosed(ctx, lanes, streams, warm)
	for _, l := range lanes {
		r.warmOps = append(r.warmOps, l.ops)
	}
	if err := between(); err != nil {
		return r, err
	}
	tallies, wall := runClosed(ctx, lanes, streams, meas)
	for i, l := range lanes {
		r.t.merge(tallies[i])
		r.endOps = append(r.endOps, l.ops)
	}
	r.wall = wall
	return r, ctx.Err()
}

// opStats are the latency figures of one op kind in a measured phase, in
// ns; a percentile whose rank holds a failure is +Inf.
type opStats struct {
	n                  int
	p50, p90, p95, p99 float64
	tail               float64 // at tailPM
	tailPM             int     // highest percentile of tailLadder with ten samples beyond it
}

func latencyOf(samples []int64) opStats {
	s := sortedCopy(samples)
	pm := tailPermille(len(s))
	return opStats{
		n:   len(s),
		p50: percentile(s, 500), p90: percentile(s, 900), p95: percentile(s, 950), p99: percentile(s, 990),
		tail: percentile(s, pm), tailPM: pm,
	}
}

// runE2E is the untraced run: lrukd as its own process, loaded over the
// wire.
func runE2E(ctx context.Context, w workload, seed uint64, dur time.Duration, bin, work string, stdout io.Writer) (result, error) {
	var (
		d     *daemon
		dirs  []string
		conns []*client.Client
	)
	closeConns := func() {
		for _, c := range conns {
			_ = c.Close()
		}
		conns = nil
	}
	defer func() {
		closeConns()
		if d != nil {
			d.kill()
		}
		for _, dir := range dirs {
			_ = os.RemoveAll(dir)
		}
	}()
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return result{}, err
			}
			d = nil
		}
		dataDir := filepath.Join(work, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		dirs = append(dirs, dataDir)
		if err := os.RemoveAll(dataDir); err != nil {
			return result{}, err
		}
		var err error
		if d, err = startLrukd(ctx, bin, w.lrukdArgs(dataDir)); err != nil {
			return result{}, err
		}
		setups = append(setups, d.setup.Seconds())
	}

	dial := func() (*client.Client, error) {
		c, err := client.Dial(d.addr)
		if err == nil {
			conns = append(conns, c)
		}
		return c, err
	}
	ctl, err := dial()
	if err != nil {
		return result{}, err
	}
	targets := make([]target, w.lanes())
	for i := range targets {
		if targets[i], err = dial(); err != nil {
			return result{}, err
		}
	}
	pid := d.cmd.Process.Pid
	var before wire.StatsReply
	var cpu0, cpu1 time.Duration
	r, err := drive(ctx, w, targets, seed, dur, nil, func() (err error) {
		if before, err = ctl.Stats(ctx); err != nil {
			return err
		}
		cpu0, err = cpuTime(pid)
		return err
	})
	if err != nil {
		return result{}, err
	}
	if cpu1, err = cpuTime(pid); err != nil {
		return result{}, err
	}
	after, err := ctl.Stats(ctx)
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSSMB(pid)
	if err != nil {
		return result{}, err
	}
	closeConns()
	stopErr := d.stop()
	d = nil

	get, upd, scan := latencyOf(r.t.lat[opGet]), latencyOf(r.t.lat[opUpdate]), latencyOf(r.t.lat[opScan])
	mainOp := [numOps]opStats{get, upd, scan}[w.mainOp]
	ok := float64(r.t.ok())
	secs := r.wall.Seconds()
	us := func(ns float64) float64 { return finite(ns / 1e3) }
	values := map[string]float64{
		"setup_s":           median(setups),
		"op_p50_us":         us(mainOp.p50),
		"disk_reads_per_op": ratio(float64(after.DB.Disk.Reads-before.DB.Disk.Reads), ok),
		"server_rss_mb":     rss,
	}
	res := result{
		Correct:   r.t.failed == 0 && r.t.wrong == 0 && r.t.attempted > 0 && stopErr == nil,
		Attempted: r.t.attempted,
		Failed:    r.t.failed + r.t.wrong,
		Metrics:   make(map[string]metric, len(e2eMetrics)),
	}
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}

	// The per-op figures under their own names, with sample counts, for
	// reading a run without the metric mapping.
	detail := map[string]any{
		"workload":             w.name,
		"seed":                 seed,
		"check_seed":           holdoutSeed(seed),
		"setup_s_each":         setups,
		"fail_frac":            ratio(float64(r.t.failed+r.t.wrong), float64(r.t.attempted)),
		"wrong":                r.t.wrong,
		"ops_s":                ok / secs,
		"server_cpu_us_per_op": ratio(float64((cpu1 - cpu0).Microseconds()), ok),
		"op_tail_us":           us(mainOp.tail),
		"op_tail_pct":          float64(mainOp.tailPM) / 10,
		"get_n":                get.n,
		"get_ops_s":            float64(get.n) / secs,
		"get_p50_us":           us(get.p50),
		"get_p90_us":           us(get.p90),
		"get_p99_us":           us(get.p99),
		"update_n":             upd.n,
		"update_ops_s":         float64(upd.n) / secs,
		"update_p50_us":        us(upd.p50),
		"update_p99_us":        us(upd.p99),
		"scan_n":               scan.n,
		"scan_p50_ms":          finite(scan.p50 / 1e6),
		"scan_p95_ms":          finite(scan.p95 / 1e6),
		"pool_hit_ratio":       hitRatio(before, after),
	}
	if r.lateness != nil {
		detail["gen_lag_ms_p99"] = percentile(sortedCopy(r.lateness), 990) / 1e6
	}
	if r.t.firstErr != nil {
		detail["first_error"] = r.t.firstErr.Error()
	}
	if stopErr != nil {
		detail["shutdown_error"] = stopErr.Error()
	}
	if err := printDetail(stdout, detail); err != nil {
		return result{}, err
	}
	return res, nil
}

func hitRatio(before, after wire.StatsReply) float64 {
	hits := after.DB.Pool.Hits - before.DB.Pool.Hits
	misses := after.DB.Pool.Misses - before.DB.Pool.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func printDetail(w io.Writer, detail map[string]any) error {
	b, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		return fmt.Errorf("encoding detail: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
