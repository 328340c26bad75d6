package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bufferpool"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// stack is the page service assembled in-process with lrukd's settings.
type stack struct {
	db     *db.DB
	srv    *server.Server
	reg    *obs.Registry // nil when untraced
	closed bool
}

// openStack builds, loads and starts the service the way lrukd does for
// workload w. With rec set, the storage backend is timed into rec and the
// program's metrics registry is armed, so its histograms can be read.
func openStack(w workload, dataDir string, rec *recorder) (*stack, error) {
	var base storage.Backend
	if w.backend == "file" {
		s, err := file.OpenConfig(dataDir, file.DefaultConfig())
		if err != nil {
			return nil, err
		}
		base = s
	}
	var reg *obs.Registry
	if rec != nil {
		if base == nil {
			base = sim.New(sim.ServiceModel{})
		}
		base = wrapBackend(base, rec)
		reg = obs.NewRegistry()
	}
	d, err := db.Open(db.Config{
		Backend: base,
		Frames:  poolFrames,
		K:       2,
		Obs:     reg,
		DiskRetry: bufferpool.RetryConfig{
			Attempts:  3,
			BaseDelay: 500 * time.Microsecond,
			MaxDelay:  5 * time.Millisecond,
			Seed:      uint64(os.Getpid()),
		},
		DiskBreaker: bufferpool.BreakerConfig{
			Threshold: 8,
			Cooldown:  250 * time.Millisecond,
			Probes:    2,
		},
	})
	if err != nil {
		if base != nil {
			_ = base.Close()
		}
		return nil, err
	}
	if err := d.LoadCustomers(customers); err != nil {
		d.Close()
		return nil, err
	}
	if w.backend == "file" {
		if err := d.FlushAll(); err != nil {
			d.Close()
			return nil, err
		}
	}
	srv := server.New(d, server.Config{
		Addr:              "127.0.0.1:0",
		Workers:           w.workers,
		DrainTimeout:      5 * time.Second,
		MaxRequestTimeout: 30 * time.Second,
		Obs:               reg,
	})
	if err := srv.Start(); err != nil {
		d.Close()
		return nil, err
	}
	return &stack{db: d, srv: srv, reg: reg}, nil
}

// close drains the server and closes the db; later calls do nothing.
func (s *stack) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return errors.Join(s.srv.Close(), s.db.Close())
}

// hist reads one of the program's latency histograms from the registry.
func (s *stack) hist(name string) obs.HistSnapshot {
	return s.reg.LatencyHistogram(name, "", nil).Snapshot()
}

// histDelta is what b recorded after a.
func histDelta(a, b obs.HistSnapshot) obs.HistSnapshot {
	d := b
	d.Count -= a.Count
	d.Sum -= a.Sum
	for i := range d.Counts {
		d.Counts[i] -= a.Counts[i]
	}
	return d
}

// counters is the stack's counter state at one instant.
type counters struct {
	db                 db.StatsSnapshot
	srv                serverCounts
	queue, fetch, miss obs.HistSnapshot
}

type serverCounts struct{ requests, shed uint64 }

func (s *stack) counters() counters {
	st := s.srv.Stats()
	return counters{
		db:    s.db.StatsSnapshot(),
		srv:   serverCounts{st.Requests, st.Shed},
		queue: s.hist("lruk_server_queue_wait_seconds"),
		fetch: s.hist("lruk_pool_fetch_seconds"),
		miss:  s.hist("lruk_pool_miss_seconds"),
	}
}

// overWire loads s over the wire from one connection per lane, wrapping
// each in a wireTarget recording into rec (which may be off).
func overWire(ctx context.Context, w workload, s *stack, seed uint64, dur time.Duration, rec *recorder, between func() error) (loadRun, []*wireTarget, error) {
	wts := make([]*wireTarget, w.lanes())
	targets := make([]target, len(wts))
	defer func() {
		for _, t := range wts {
			if t != nil {
				_ = t.c.Close()
			}
		}
	}()
	for i := range wts {
		c, err := client.Dial(s.srv.Addr().String())
		if err != nil {
			return loadRun{}, nil, err
		}
		wts[i] = &wireTarget{c: c, rec: rec}
		targets[i] = wts[i]
	}
	r, err := drive(ctx, w, targets, seed, dur, nil, between)
	return r, wts, err
}

// runTraced is the per-layer run. It splits dur in three: an untraced
// over-wire run for the tracing-overhead baseline, a traced over-wire run
// that gives the counters, histograms and storage timings, and a direct
// pass replaying the same requests into the db layer, whose difference
// from the wire run is the client, wire and server share.
func runTraced(ctx context.Context, w workload, seed uint64, dur time.Duration, work string, stdout io.Writer) (result, error) {
	part := dur / 3
	dirA := filepath.Join(work, fmt.Sprintf("traced-%d-a", os.Getpid()))
	dirB := filepath.Join(work, fmt.Sprintf("traced-%d-b", os.Getpid()))
	defer os.RemoveAll(dirA)
	defer os.RemoveAll(dirB)
	for _, dir := range []string{dirA, dirB} {
		if err := os.RemoveAll(dir); err != nil {
			return result{}, err
		}
	}
	var all tally // every checked request of every phase

	// Untraced baseline.
	plain, err := openStack(w, dirA, nil)
	if err != nil {
		return result{}, err
	}
	base, _, err := overWire(ctx, w, plain, seed, part, nil, func() error { return nil })
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	all.merge(base.t)

	// Traced over-wire run.
	rec := newRecorder(1 << 21)
	s, err := openStack(w, dirB, rec)
	if err != nil {
		return result{}, err
	}
	defer s.close()
	var c0, c1 counters
	wr, wts, err := overWire(ctx, w, s, seed, part, rec, func() error {
		c0 = s.counters()
		rec.on.Store(true)
		return nil
	})
	rec.on.Store(false)
	c1 = s.counters()
	if err != nil {
		return result{}, err
	}
	all.merge(wr.t)
	wireSpans := rec.take()

	// Direct pass: the same requests (closed loop) or schedule (open
	// loop) straight into the db.
	targets := make([]target, w.lanes())
	for i := range targets {
		targets[i] = dbTarget{db: s.db, rec: rec}
	}
	dr, err := drive(ctx, w, targets, seed, part, &wr, func() error {
		rec.on.Store(true)
		return nil
	})
	rec.on.Store(false)
	if err != nil {
		return result{}, err
	}
	all.merge(dr.t)
	directSpans := rec.take()

	// Fetches per op, from serial calls so each op's count stands alone.
	fetches, cal := fetchesPerOp(ctx, w, s.db, seed)
	all.merge(cal)
	var codec [numOps]float64
	for _, op := range []opKind{opGet, opUpdate} {
		var pairs []framePair
		for _, t := range wts {
			pairs = append(pairs, t.frames[op]...)
		}
		if codec[op], err = codecNsPerPair(pairs); err != nil {
			return result{}, err
		}
	}
	if err := s.close(); err != nil {
		return result{}, err
	}

	m := layerMetrics(base, wr, dr, c0, c1, wireSpans, directSpans, fetches, codec)
	printSelfTimes(stdout, wireSpans, directSpans)
	spanFile := filepath.Join(work, "spans-"+w.name+".csv")
	if err := writeSpans(spanFile, map[string][]span{"wire": wireSpans, "direct": directSpans}); err != nil {
		return result{}, err
	}
	detail := map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"check_seed":    holdoutSeed(seed),
		"span_file":     spanFile,
		"spans_dropped": rec.dropped,
	}
	if all.firstErr != nil {
		detail["first_error"] = all.firstErr.Error()
	}
	if err := printDetail(stdout, detail); err != nil {
		return result{}, err
	}
	return result{
		Correct:   all.failed == 0 && all.wrong == 0 && all.attempted > 0 && rec.dropped == 0,
		Attempted: all.attempted,
		Failed:    all.failed + all.wrong,
		Metrics:   m,
	}, nil
}

// calibrationOps is how many serial requests measure fetches per op.
const calibrationOps = 500

// fetchesPerOp counts buffer-pool fetches (hits plus misses) per request
// of each op the workload sends, one request at a time.
func fetchesPerOp(ctx context.Context, w workload, d *db.DB, seed uint64) ([numOps]float64, tally) {
	var out [numOps]float64
	var t tally
	var fills []byte
	if w.updatePct > 0 {
		for i := 0; i < w.lanes(); i++ {
			fills = append(fills, fillOf(i))
		}
	}
	l := &lane{t: dbTarget{db: d}, fill: fillOf(0), fills: fills}
	s := newStream(seed, w.lanes(), 0) // a lane index no load lane uses
	measure := func(op opKind, n int) {
		before := d.PoolStats()
		for i := 0; i < n; i++ {
			_, key := s.next()
			l.do(ctx, op, key, time.Now(), &t)
		}
		after := d.PoolStats()
		out[op] = float64(after.Hits+after.Misses-before.Hits-before.Misses) / float64(n)
	}
	measure(opGet, calibrationOps)
	if w.updatePct > 0 {
		measure(opUpdate, calibrationOps)
	}
	if w.scanRate > 0 {
		measure(opScan, 2)
	}
	return out, t
}
