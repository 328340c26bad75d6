package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/stats"
)

// Dataset and key distribution shared by every workload: lrukd's default
// population behind its default pool, referenced under the paper's §4.2
// self-similar 80-20 skew with key = rank - 1 (customer 0 is the hottest).
const (
	customers  = 10000
	recordSize = 2000
	poolFrames = 404
	zipfAlpha  = 0.8
	zipfBeta   = 0.2
)

type opKind uint8

const (
	opGet opKind = iota
	opUpdate
	opScan
	numOps
)

var opNames = [numOps]string{"get", "update", "scan"}

// workload is one traffic mix against one lrukd configuration. A closed
// loop (conns > 0) keeps one request outstanding per connection; an open
// loop (scanRate > 0) sends full SCANs on one connection and GETs on a
// second, each on a fixed schedule regardless of how the server keeps up.
type workload struct {
	name      string
	backend   string // lrukd -backend
	workers   int    // lrukd -workers; 0 keeps lrukd's default
	conns     int    // closed loop: connections, one request in flight each
	updatePct int    // closed loop: percent of requests that are UPDATEs
	scanRate  int    // open loop: SCANs per second on connection A
	getRate   int    // open loop: GETs per second on connection B
	mainOp    opKind // the op reported as op_p50_us / op_tail_us
}

var workloads = []workload{
	{name: "zipf-get", backend: "sim", conns: 2, mainOp: opGet},
	{name: "durable-rw", backend: "file", conns: 2, updatePct: 50, mainOp: opUpdate},
	// One worker, so a scan makes point lookups queue behind it; with two
	// workers for two connections nothing would ever wait.
	// Ten scans a second keep the worker under half busy with scans even
	// when the host steals a third of the CPU; at twenty, GET p50 swung
	// between 0.3 and 7 ms from run to run.
	{name: "scan-mix", backend: "sim", workers: 1, scanRate: 10, getRate: 2000, mainOp: opScan},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// lrukdArgs returns the daemon's command line: its defaults, a free
// loopback port, and whatever the workload names.
func (w workload) lrukdArgs(dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if w.backend != "sim" {
		args = append(args, "-backend", w.backend, "-data-dir", dataDir)
	}
	if w.workers > 0 {
		args = append(args, "-workers", fmt.Sprint(w.workers))
	}
	return args
}

// lanes is the number of connections the workload drives.
func (w workload) lanes() int {
	if w.scanRate > 0 {
		return 2
	}
	return w.conns
}

// fillOf is lane i's UPDATE fill byte. Every lane writes its own byte, so a
// record whose filler mixes bytes was torn.
func fillOf(lane int) byte { return byte(0xA1 + lane) }

// stream is one lane's seeded request sequence: the same seed and lane
// give the same ops and keys, whatever the server does.
type stream struct {
	rng       *stats.RNG
	zipf      *stats.SelfSimilar
	updatePct int
}

func newStream(seed uint64, lane, updatePct int) *stream {
	z, err := stats.NewSelfSimilar(customers, zipfAlpha, zipfBeta)
	if err != nil {
		panic(err) // constant, valid parameters
	}
	return &stream{
		rng:       stats.NewRNG(seed ^ uint64(lane+1)*0x9e3779b97f4a7c15),
		zipf:      z,
		updatePct: updatePct,
	}
}

// next draws the lane's next point request.
func (s *stream) next() (opKind, int64) {
	op := opGet
	if s.updatePct > 0 && s.rng.Intn(100) < s.updatePct {
		op = opUpdate
	}
	return op, int64(s.zipf.Sample(s.rng) - 1)
}

// target is what a lane sends requests to: the wire client, or the db
// layer directly in the traced run's direct pass.
type target interface {
	Get(ctx context.Context, key int64) ([]byte, error)
	Update(ctx context.Context, key int64, fill byte) error
	Scan(ctx context.Context) (int, error)
}

// errWrong marks a reply that arrived but whose content is wrong.
var errWrong = errors.New("wrong content")

// checkRecord verifies a GET reply: the record's size, its customer id in
// the first 8 bytes (little-endian), and a uniform filler that is 0 (as
// loaded) or one lane's fill byte.
func checkRecord(rec []byte, key int64, fills []byte) error {
	if len(rec) != recordSize {
		return fmt.Errorf("%w: customer %d: %d bytes, want %d", errWrong, key, len(rec), recordSize)
	}
	if got := int64(binary.LittleEndian.Uint64(rec)); got != key {
		return fmt.Errorf("%w: customer %d: record holds id %d", errWrong, key, got)
	}
	f := rec[8]
	for i := 9; i < len(rec); i++ {
		if rec[i] != f {
			return fmt.Errorf("%w: customer %d: torn filler (%#x at 8, %#x at %d)", errWrong, key, f, rec[i], i)
		}
	}
	if f == 0 {
		return nil
	}
	for _, ok := range fills {
		if f == ok {
			return nil
		}
	}
	return fmt.Errorf("%w: customer %d: filler %#x written by no lane", errWrong, key, f)
}

// tally is what one lane saw in one phase. Latencies are nanoseconds,
// with failed standing in for every failed, refused or wrong reply.
type tally struct {
	lat       [numOps][]int64
	attempted int
	failed    int // errors and refusals
	wrong     int // replies with wrong content
	firstErr  error
}

func (t *tally) merge(o tally) {
	for i := range t.lat {
		t.lat[i] = append(t.lat[i], o.lat[i]...)
	}
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// ok is the number of requests that succeeded with the right content.
func (t *tally) ok() int { return t.attempted - t.failed - t.wrong }

// lane is one connection's request loop state.
type lane struct {
	t     target
	fill  byte   // this lane's UPDATE fill byte
	fills []byte // fill bytes any lane may have written
	ops   int    // requests issued so far, across phases
}

// reqTimeout bounds every request, so a stuck server fails the run instead
// of hanging it.
const reqTimeout = 10 * time.Second

// do sends one request, checks the reply, and records its latency from
// since into t (when t is non-nil).
func (l *lane) do(ctx context.Context, op opKind, key int64, since time.Time, t *tally) {
	l.ops++
	rctx, cancel := context.WithTimeout(ctx, reqTimeout)
	var err error
	switch op {
	case opGet:
		var rec []byte
		if rec, err = l.t.Get(rctx, key); err == nil {
			err = checkRecord(rec, key, l.fills)
		}
	case opUpdate:
		err = l.t.Update(rctx, key, l.fill)
	case opScan:
		var n int
		if n, err = l.t.Scan(rctx); err == nil && n != customers {
			err = fmt.Errorf("%w: scan saw %d customers, want %d", errWrong, n, customers)
		}
	}
	cancel()
	lat := time.Since(since).Nanoseconds()
	if t == nil {
		return
	}
	t.attempted++
	if err != nil {
		lat = failed
		if errors.Is(err, errWrong) {
			t.wrong++
		} else {
			t.failed++
		}
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s: %w", opNames[op], err)
		}
	}
	t.lat[op] = append(t.lat[op], lat)
}

// phase bounds one measured (or warm-up) stretch of a closed loop: it runs
// for dur, or, when counts is set, until lane i has issued counts[i]
// requests in total — how the direct pass replays the wire run's requests.
type phase struct {
	dur    time.Duration
	counts []int
	record bool
}

// runClosed drives every lane in a closed loop for one phase and returns
// each lane's tally and the phase's wall time.
func runClosed(ctx context.Context, lanes []*lane, streams []*stream, p phase) ([]tally, time.Duration) {
	out := make([]tally, len(lanes))
	start := time.Now()
	end := start.Add(p.dur)
	done := make(chan struct{}, len(lanes))
	for i := range lanes {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			l, s := lanes[i], streams[i]
			var t *tally
			if p.record {
				t = &out[i]
			}
			for ctx.Err() == nil {
				if p.counts != nil {
					if l.ops >= p.counts[i] {
						return
					}
				} else if !time.Now().Before(end) {
					return
				}
				op, key := s.next()
				l.do(ctx, op, key, time.Now(), t)
			}
		}(i)
	}
	for range lanes {
		<-done
	}
	return out, time.Since(start)
}

// clock is the time source of the open-loop generator, swappable in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// minTick is the shortest wait between generator ticks: time.Sleep
// overshoots any shorter wait to about a millisecond anyway, so the
// generator releases every request that fell due since the last tick at
// once and reports how late each one was.
const minTick = time.Millisecond

// job is one released open-loop request.
type job struct {
	key     int64
	due     time.Time
	release time.Time
}

// generate releases n requests due at start + i·interval on ticks at least
// minTick apart, sending each to out stamped with its release time, and
// returns each request's lateness (release - due) in nanoseconds. out must
// hold n jobs, so the generator never waits on its consumer. It stops early
// when ctx ends; it does not close out.
func generate(ctx context.Context, clk clock, start time.Time, interval time.Duration, n int, s *stream, out chan<- job) []int64 {
	lateness := make([]int64, 0, n)
	for i := 0; i < n && ctx.Err() == nil; {
		now := clk.Now()
		for ; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			_, key := s.next()
			out <- job{key: key, due: due, release: now}
			lateness = append(lateness, now.Sub(due).Nanoseconds())
		}
		if i < n {
			clk.Sleep(max(minTick, start.Add(time.Duration(i)*interval).Sub(now)))
		}
	}
	return lateness
}

// openResult is one open-loop phase's outcome.
type openResult struct {
	scans, gets tally
	lateness    []int64 // generator lateness of each released GET, ns
	wall        time.Duration
}

// runOpen drives the open-loop scan mix for dur: lane 0 sends a full SCAN
// at each scheduled instant, timed from when it was due; lane 1 sends the
// generator's GETs in release order, each timed from its release. Every
// request due inside the window is sent and waited for.
func runOpen(ctx context.Context, w workload, lanes []*lane, s *stream, dur time.Duration, record bool) openResult {
	var res openResult
	start := time.Now().Add(time.Millisecond)
	scanEvery := time.Second / time.Duration(w.scanRate)
	getEvery := time.Second / time.Duration(w.getRate)
	nScans := int(dur / scanEvery)
	nGets := int(dur / getEvery)
	pick := func(t *tally) *tally {
		if record {
			return t
		}
		return nil
	}

	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for i := 0; i < nScans && ctx.Err() == nil; i++ {
			due := start.Add(time.Duration(i) * scanEvery)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			lanes[0].do(ctx, opScan, 0, due, pick(&res.scans))
		}
	}()

	jobs := make(chan job, nGets) // holds every release, see generate
	getDone := make(chan struct{})
	go func() {
		defer close(getDone)
		for j := range jobs {
			lanes[1].do(ctx, opGet, j.key, j.release, pick(&res.gets))
		}
	}()
	res.lateness = generate(ctx, realClock{}, start, getEvery, nGets, s, jobs)
	close(jobs)
	<-getDone
	<-scanDone
	res.wall = time.Since(start)
	return res
}
