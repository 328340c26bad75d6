package bufferpool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// gatedDisk returns a manager whose reads and writes park on gate while
// armed, signalling entry on entered — the scaffolding for freezing a load
// mid-flight so a coalesced waiter can be cancelled deterministically.
func gatedDisk() (d *storage.Faulty, arm *atomic.Bool, entered chan struct{}, gate chan struct{}) {
	arm = &atomic.Bool{}
	entered = make(chan struct{}, 16)
	gate = make(chan struct{})
	d = newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if arm.Load() {
			entered <- struct{}{}
			<-gate
		}
	}})
	return d, arm, entered, gate
}

func TestFetchExpiredContext(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.FetchCtx(ctx, ids[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("FetchCtx on cancelled ctx: %v, want context.Canceled", err)
	}
	if _, err := p.NewPageCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewPageCtx on cancelled ctx: %v, want context.Canceled", err)
	}
	checkFrameInvariant(t, p)
	s := p.Stats()
	if s.Hits != 0 || s.Misses != 0 {
		t.Errorf("pre-flight rejection charged counters: %+v", s)
	}
}

// TestCoalescedWaiterAbandonSuccessfulLoad freezes a load mid-disk-read,
// parks a second fetch on the in-flight frame, expires its deadline, then
// lets the load finish. The waiter must return promptly with its context
// error; the loader must still install the page; and the books must close
// exactly: no pin leak, no double free, miss/coalesced counters intact.
func TestCoalescedWaiterAbandonSuccessfulLoad(t *testing.T) {
	leakcheck.Check(t)
	d, arm, entered, gate := gatedDisk()
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))

	arm.Store(true)
	loaded := make(chan error, 1)
	go func() {
		pg, err := p.Fetch(a)
		if err == nil {
			pg.Unpin(false)
		}
		loaded <- err
	}()
	<-entered // the loader is parked inside the disk read

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.FetchCtx(ctx, a)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned waiter returned %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("abandoned waiter took %v to return", waited)
	}

	arm.Store(false)
	close(gate) // release the loader
	if err := <-loaded; err != nil {
		t.Fatalf("loader failed: %v", err)
	}
	if !p.Resident(a) {
		t.Fatal("loader did not install the page after the waiter abandoned")
	}
	checkFrameInvariant(t, p)
	s := p.Stats()
	// Loader: one miss. Abandoned waiter: one miss, one coalesced.
	if s.Misses != 2 || s.Coalesced != 1 || s.Hits != 0 {
		t.Errorf("stats after abandon = %+v, want Misses 2, Coalesced 1", s)
	}
	if f := p.frameFor(a); f != nil && f.pins() != 0 {
		t.Errorf("pin leak: page %d has %d pins after everyone released", a, f.pins())
	}
	// The page must still be usable and evictable: a hit works...
	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if got := p.Stats().Hits; got != 1 {
		t.Errorf("post-abandon fetch was not a hit (Hits = %d)", got)
	}
}

// TestCoalescedWaiterAbandonFailedLoad is the other arm: the frozen load
// ends in a disk fault. Whichever participant drops the last pin must
// recycle the frame exactly once.
func TestCoalescedWaiterAbandonFailedLoad(t *testing.T) {
	leakcheck.Check(t)
	d, arm, entered, gate := gatedDisk()
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{a}}))

	arm.Store(true)
	loaded := make(chan error, 1)
	go func() {
		_, err := p.Fetch(a)
		loaded <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := p.FetchCtx(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned waiter returned %v, want context.DeadlineExceeded", err)
	}

	arm.Store(false)
	close(gate)
	if err := <-loaded; !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("loader error = %v, want injected fault", err)
	}
	if p.Resident(a) {
		t.Fatal("failed load left the page resident")
	}
	checkFrameInvariant(t, p)
	s := p.Stats()
	if s.ReadErrors != 1 {
		t.Errorf("ReadErrors = %d, want 1 (counted once, by the loader)", s.ReadErrors)
	}
	if s.Misses != 2 || s.Coalesced != 1 {
		t.Errorf("stats after failed abandon = %+v, want Misses 2, Coalesced 1", s)
	}
	// The failure must be transient to the pool: healed disk, page loads.
	d.SetFaults(nil)
	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
}

// TestAbandonLastPinRestoresEvictability drives the zero-crossing where
// the abandoning waiter is the LAST pin out of an already-published frame:
// it must hand the page back to the replacer, or the frame could never be
// evicted again.
func TestAbandonLastPinRestoresEvictability(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{}))

	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	sh := p.shardOf(a)
	f := p.frameFor(a)
	f.pinAdd(1)     // the waiter's coalesced pin, held across the load
	pg.Unpin(false) // the loader's caller is done; the waiter still pins
	p.abandonPin(sh, a, f)

	// One frame, and a is the only candidate: this fetch succeeds only if
	// the abandon marked a evictable.
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatalf("page stuck unevictable after last-pin abandon: %v", err)
	}
	pg.Unpin(false)
	checkFrameInvariant(t, p)
}

func TestRetryTransientFaultRecovers(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{
		Retry: RetryConfig{Attempts: 4, BaseDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond, Seed: 7},
	})
	// The first two read attempts fault; the third succeeds.
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{a}, Count: 2}))

	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatalf("fetch did not survive two transient faults: %v", err)
	}
	if pg.Data()[0] != 1 {
		t.Fatal("retried read returned wrong data")
	}
	pg.Unpin(false)

	s, ds := p.Stats(), d.Stats()
	if s.ReadRetries != 2 || s.ReadErrors != 0 {
		t.Errorf("ReadRetries = %d, ReadErrors = %d; want 2, 0", s.ReadRetries, s.ReadErrors)
	}
	if ds.ReadFaults != s.ReadRetries+s.ReadErrors {
		t.Errorf("fault ledger out of balance: disk %d faults, pool %d retries + %d errors",
			ds.ReadFaults, s.ReadRetries, s.ReadErrors)
	}
	checkFrameInvariant(t, p)
}

func TestRetryPermanentErrorNotRetried(t *testing.T) {
	headCrash := errors.New("disk: head crash")
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{
		Retry: RetryConfig{Attempts: 5, BaseDelay: 50 * time.Microsecond},
	})
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{a}, Err: headCrash}))

	if _, err := p.Fetch(a); !errors.Is(err, headCrash) {
		t.Fatalf("fetch error = %v, want the permanent fault", err)
	}
	s, ds := p.Stats(), d.Stats()
	if s.ReadRetries != 0 {
		t.Errorf("permanent error was retried %d times", s.ReadRetries)
	}
	if s.ReadErrors != 1 || ds.ReadFaults != 1 {
		t.Errorf("ReadErrors = %d, disk faults = %d; want 1, 1 (single attempt)", s.ReadErrors, ds.ReadFaults)
	}
	checkFrameInvariant(t, p)
}

// TestRetryBackoffChargedToContext: with an unlimited fault and generous
// attempts, the caller's deadline — not the retry budget — must end the
// ladder, promptly and mid-backoff.
func TestRetryBackoffChargedToContext(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{
		Retry: RetryConfig{Attempts: 1 << 20, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	})
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{a}}))

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.FetchCtx(ctx, a)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want wrapped context.DeadlineExceeded", err)
	}
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("error = %v does not preserve the underlying disk fault", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("retry ladder ignored the deadline for %v", elapsed)
	}
	s := p.Stats()
	if s.ReadErrors != 1 {
		t.Errorf("ReadErrors = %d, want 1 (one logical failure)", s.ReadErrors)
	}
	checkFrameInvariant(t, p)
}

// TestBreakerFailFastAndRecovery exercises the breaker through the pool:
// sustained read faults trip the page's stripe, after which misses on it
// fail fast with ErrDiskUnavailable (no disk attempt) while hits keep
// serving; healing the disk lets half-open probes close the circuit.
func TestBreakerFailFastAndRecovery(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 30 * time.Millisecond, Probes: 1},
	})

	// b resides before the disk breaks: its hits must survive the outage.
	pg, err := p.Fetch(b)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)

	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead}))
	for i := 0; i < 2; i++ {
		if _, err := p.Fetch(a); !errors.Is(err, storage.ErrInjectedFault) {
			t.Fatalf("fetch %d error = %v, want injected fault", i, err)
		}
	}
	s := p.Stats()
	if s.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d after %d consecutive failures, want 1", s.BreakerTrips, 2)
	}

	// Open circuit: fail fast, no disk attempt.
	faultsBefore := d.Stats().ReadFaults
	if _, err := p.Fetch(a); !errors.Is(err, ErrDiskUnavailable) {
		t.Fatalf("fetch while open = %v, want ErrDiskUnavailable", err)
	}
	if got := d.Stats().ReadFaults; got != faultsBefore {
		t.Errorf("open breaker still reached the disk (%d -> %d faults)", faultsBefore, got)
	}
	s = p.Stats()
	if s.ReadsRejected != 1 {
		t.Errorf("ReadsRejected = %d, want 1", s.ReadsRejected)
	}
	// Hits are unaffected by the open circuit.
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatalf("buffer hit failed while the breaker is open: %v", err)
	}
	pg.Unpin(false)

	// Heal, wait out the cooldown: the next miss is the half-open probe and
	// closes the circuit (Probes: 1).
	d.SetFaults(nil)
	time.Sleep(35 * time.Millisecond)
	pg, err = p.Fetch(a)
	if err != nil {
		t.Fatalf("probe fetch after heal failed: %v", err)
	}
	if pg.Data()[0] != 1 {
		t.Fatal("probe fetch returned wrong data")
	}
	pg.Unpin(false)
	s, ds := p.Stats(), d.Stats()
	if s.BreakerTrips != 1 {
		t.Errorf("BreakerTrips = %d after recovery, want still 1", s.BreakerTrips)
	}
	if ds.ReadFaults != s.ReadRetries+s.ReadErrors {
		t.Errorf("fault ledger out of balance: disk %d faults, pool %d retries + %d errors",
			ds.ReadFaults, s.ReadRetries, s.ReadErrors)
	}
	checkFrameInvariant(t, p)
}

// TestBackgroundWriterDrainsQuarantine: a dirty victim whose write-back
// faults lands in quarantine; the started pool's background writer must
// drain it to disk once the fault clears — with no eviction sweep or
// explicit flush from the caller.
func TestBackgroundWriterDrainsQuarantine(t *testing.T) {
	leakcheck.Check(t)
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 3)
	a, b, c := ids[0], ids[1], ids[2]
	p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{
		WriterInterval: time.Millisecond,
	})
	defer p.Close()

	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("precious"))
	pg.Unpin(true) // dirty LRU victim
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)

	// Exactly one write of a faults: the eviction sweep quarantines it; the
	// background writer's retry then succeeds.
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{a}, Count: 1}))
	pg, err = p.Fetch(c)
	if err != nil {
		t.Fatalf("fetch failed despite a skippable poisoned victim: %v", err)
	}
	pg.Unpin(false)
	if got := p.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d after failed write-back, want 1", got)
	}
	evictionsAtQuarantine := p.Stats().Evictions
	// Start the writer only now: started earlier, it could drain the
	// quarantine before the check above.
	p.Start()

	deadline := time.Now().Add(5 * time.Second)
	for p.Quarantined() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background writer did not drain quarantine; still %d", p.Quarantined())
		}
		time.Sleep(time.Millisecond)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "precious" {
		t.Errorf("drained page content = %q, want %q", buf[:8], "precious")
	}
	if got := p.Stats().Evictions; got != evictionsAtQuarantine {
		t.Errorf("drain evicted pages (%d -> %d); it must only write back", evictionsAtQuarantine, got)
	}
	if !p.Resident(a) {
		t.Error("drained page lost residency")
	}
	checkFrameInvariant(t, p)
}

// TestPoolCloseIdempotentAndFenced: Close stops the writer, flushes dirty
// pages, and fences the API behind ErrClosed; a second Close replays the
// first result without re-flushing.
func TestPoolCloseIdempotentAndFenced(t *testing.T) {
	leakcheck.Check(t)
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	a := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	p.Start()

	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("closing"))
	pg.Unpin(true)

	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:7]) != "closing" {
		t.Errorf("Close did not flush: disk has %q", buf[:7])
	}

	if _, err := p.Fetch(a); !errors.Is(err, ErrClosed) {
		t.Errorf("Fetch after Close = %v, want ErrClosed", err)
	}
	if _, err := p.NewPage(); !errors.Is(err, ErrClosed) {
		t.Errorf("NewPage after Close = %v, want ErrClosed", err)
	}
	if err := p.FlushAll(); !errors.Is(err, ErrClosed) {
		t.Errorf("FlushAll after Close = %v, want ErrClosed", err)
	}
	if err := p.FlushPage(a); !errors.Is(err, ErrClosed) {
		t.Errorf("FlushPage after Close = %v, want ErrClosed", err)
	}
	if err := p.DeletePage(a); !errors.Is(err, ErrClosed) {
		t.Errorf("DeletePage after Close = %v, want ErrClosed", err)
	}
	writesBefore := d.Stats().Writes
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if got := d.Stats().Writes; got != writesBefore {
		t.Errorf("second Close flushed again (%d -> %d writes)", writesBefore, got)
	}
	// Start after Close must not resurrect the writer.
	p.Start()
	if err := p.FlushAll(); !errors.Is(err, ErrClosed) {
		t.Errorf("pool revived by Start after Close: %v", err)
	}
}
