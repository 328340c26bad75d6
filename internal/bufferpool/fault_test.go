package bufferpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// frameAccounting counts free-list frames and table-reachable frames. On a
// quiescent pool their sum must equal NumFrames: no frame leaked, none
// double-freed (a double free would push free above NumFrames).
func frameAccounting(p *Pool) (free, tabled int) {
	p.freeMu.Lock()
	free = len(p.free)
	p.freeMu.Unlock()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		tabled += len(sh.table)
		sh.mu.RUnlock()
	}
	return free, tabled
}

func checkFrameInvariant(t *testing.T, p *Pool) {
	t.Helper()
	free, tabled := frameAccounting(p)
	if free+tabled != p.NumFrames() {
		t.Errorf("frame accounting: %d free + %d tabled != %d frames", free, tabled, p.NumFrames())
	}
}

// allocPages allocates n disk pages, each stamped with a recognisable
// byte, and returns their ids.
func allocPages(t *testing.T, d *storage.Faulty, n int) []policy.PageID {
	t.Helper()
	ids := make([]policy.PageID, n)
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storage.MustAllocate(d)
		buf[0] = byte(i + 1)
		if err := d.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestWriteBackFaultSkipsVictim is the headline hardening test: a dirty
// victim whose write-back fails must not fail the unrelated fetch — the
// pool quarantines the poisoned page and evicts the next victim instead.
func TestWriteBackFaultSkipsVictim(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 3)
	a, b, c := ids[0], ids[1], ids[2]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))

	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("precious"))
	pg.Unpin(true) // dirty: a is the LRU victim and needs write-back
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false) // clean second choice

	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{a}}))

	// The fetch of c must succeed by skipping poisoned a and evicting b.
	pg, err = p.Fetch(c)
	if err != nil {
		t.Fatalf("fetch failed because an unrelated victim's write-back failed: %v", err)
	}
	pg.Unpin(false)
	if !p.Resident(a) {
		t.Error("poisoned dirty victim lost residency (its data exists only in memory)")
	}
	if p.Resident(b) {
		t.Error("clean second victim not evicted")
	}
	s := p.Stats()
	if s.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d, want 1", s.WriteErrors)
	}
	if s.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1 (b only)", s.Evictions)
	}
	if got := p.Quarantined(); got != 1 {
		t.Errorf("Quarantined = %d, want 1", got)
	}
	checkFrameInvariant(t, p)
	// The restored victim is still a hit, with its in-memory update.
	pg, err = p.Fetch(a)
	if err != nil {
		t.Fatalf("restored victim not fetchable: %v", err)
	}
	if string(pg.Data()[:8]) != "precious" {
		t.Errorf("restored victim lost its in-memory update: %q", pg.Data()[:8])
	}
	pg.Unpin(false)
	if got := p.Stats().Hits; got != s.Hits+1 {
		t.Errorf("re-fetch of restored victim: Hits = %d, want %d (phantom eviction)", got, s.Hits+1)
	}

	// The fault clears; the quarantined page flushes and leaves quarantine,
	// with its in-memory modification intact on disk.
	d.SetFaults(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.Quarantined(); got != 0 {
		t.Errorf("Quarantined = %d after successful flush, want 0", got)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "precious" {
		t.Errorf("committed update lost across the fault: %q", buf[:8])
	}
}

// TestRestoreAfterFailedWriteback restores a dirty victim whose write-back
// fails while the retained information period is set. The restore must
// reinstate the page's existing HIST block — never fabricate a phantom
// one — and the pool/replacer state must stay consistent enough for the
// page to be fetched, flushed and evicted normally once the fault clears.
// Run under -race: the background writer drains the quarantine
// concurrently.
func TestRestoreAfterFailedWriteback(t *testing.T) {
	d := storage.WithFaults(sim.New(sim.ServiceModel{}))
	const frames = 4
	var ids []policy.PageID
	for i := 0; i < frames+2; i++ {
		ids = append(ids, storage.MustAllocate(d))
	}
	victim := ids[0]
	p := New(d, frames, core.NewSyncReplacer(2, core.Options{RetainedInformationPeriod: 100}))

	// Dirty the victim-to-be and fill the rest of the pool.
	pg, err := p.Fetch(victim)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[0] = 0xAB
	pg.Unpin(true)
	for _, id := range ids[1:frames] {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}

	// Every write to the victim fails: the eviction sweep claims it, fails
	// the write-back, restores it, and takes a clean page instead.
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{victim}}))
	pg, err = p.Fetch(ids[frames])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	s := p.Stats()
	if s.WriteErrors == 0 {
		t.Fatalf("eviction did not fail the victim's write-back: %+v", s)
	}

	// The restored page must still be resident with its dirty data intact.
	pg, err = p.Fetch(victim)
	if err != nil {
		t.Fatalf("restored victim not fetchable: %v", err)
	}
	if pg.Data()[0] != 0xAB {
		t.Fatalf("restored victim lost its in-memory update: %x", pg.Data()[0])
	}
	pg.Unpin(false)
	if hits := p.Stats().Hits; hits == 0 {
		t.Error("re-fetch of restored victim was not a hit (phantom eviction)")
	}

	// Heal the disk; the page must flush and then evict normally.
	d.SetFaults(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("flush after healing: %v", err)
	}
	for _, id := range ids[1:] {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackFaultBoundedAttempts: when every evictable victim is dirty
// and poisoned, obtainFrame must give up with the joined write-back errors
// rather than loop, and the pool must stay fully intact.
func TestWriteBackFaultBoundedAttempts(t *testing.T) {
	const frames = 6
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, frames+1)
	p := New(d, frames, core.NewSyncReplacer(2, core.Options{}))
	for _, id := range ids[:frames] {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[0]++
		pg.Unpin(true)
	}
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite}))

	_, err := p.Fetch(ids[frames])
	if err == nil {
		t.Fatal("fetch succeeded with every write-back poisoned")
	}
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Errorf("error %v does not unwrap to the injected fault", err)
	}
	if errors.Is(err, ErrNoFreeFrame) {
		t.Errorf("write-back failure misreported as ErrNoFreeFrame: %v", err)
	}
	s := p.Stats()
	if s.WriteErrors != maxWriteBackFailures {
		t.Errorf("WriteErrors = %d, want the sweep bound %d", s.WriteErrors, maxWriteBackFailures)
	}
	// Every page must still be resident — nothing evicted, nothing leaked.
	for _, id := range ids[:frames] {
		if !p.Resident(id) {
			t.Errorf("page %d lost residency during the failed sweep", id)
		}
	}
	checkFrameInvariant(t, p)

	// Once the faults clear, the same fetch succeeds and quarantine drains
	// as retried write-backs go through.
	d.SetFaults(nil)
	pg, err := p.Fetch(ids[frames])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.Quarantined(); got != 0 {
		t.Errorf("Quarantined = %d after recovery, want 0", got)
	}
	checkFrameInvariant(t, p)
}

// TestQuarantineRetriedOnNextSweep: a transiently poisoned victim fails
// one sweep and is written back successfully by the next.
func TestQuarantineRetriedOnNextSweep(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{}))
	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("survives"))
	pg.Unpin(true)

	// One transient write fault: the first sweep fails, the retry works.
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{a}, Count: 1}))
	if _, err := p.Fetch(b); err == nil {
		t.Fatal("single-frame fetch succeeded though its only victim was poisoned")
	}
	if got := p.Quarantined(); got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}
	pg, err = p.Fetch(b) // next sweep retries a's write-back, which now succeeds
	if err != nil {
		t.Fatalf("retry sweep failed: %v", err)
	}
	pg.Unpin(false)
	if got := p.Quarantined(); got != 0 {
		t.Errorf("Quarantined = %d after successful retry, want 0", got)
	}
	s := p.Stats()
	if s.WriteErrors != 1 || s.WriteBacks != 1 {
		t.Errorf("WriteErrors = %d, WriteBacks = %d, want 1 and 1", s.WriteErrors, s.WriteBacks)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), a, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "survives" {
		t.Errorf("update lost across transient fault: %q", buf[:8])
	}
	checkFrameInvariant(t, p)
}

// TestFlushAllAggregatesErrors: FlushAll must visit every shard and page,
// flushing what it can and returning the failures joined, instead of
// aborting on the first error.
func TestFlushAllAggregatesErrors(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 3)
	a, b, c := ids[0], ids[1], ids[2]
	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	for i, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Data()[1] = byte(0xA0 + i)
		pg.Unpin(true)
	}
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{a, b}}))

	err := p.FlushAll()
	if err == nil {
		t.Fatal("FlushAll reported success with two poisoned pages")
	}
	if !errors.Is(err, storage.ErrInjectedFault) {
		t.Errorf("joined error %v does not unwrap to the injected fault", err)
	}
	if s := p.Stats(); s.WriteErrors != 2 {
		t.Errorf("WriteErrors = %d, want 2 (every dirty page attempted)", s.WriteErrors)
	}
	// The unpoisoned page was flushed despite the earlier failures.
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), c, buf); err != nil {
		t.Fatal(err)
	}
	if buf[1] != 0xA2 {
		t.Error("FlushAll skipped a healthy page after an earlier failure")
	}
	// Failed pages stayed dirty: a retry after the fault clears loses nothing.
	d.SetFaults(nil)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for i, id := range []policy.PageID{a, b} {
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[1] != byte(0xA0+i) {
			t.Errorf("page %d not persisted by the retry flush", id)
		}
	}
}

// TestFetchReadFaultAccounting: a failed miss read counts as a miss and a
// read error, returns its frame, and the next fetch recovers.
func TestFetchReadFaultAccounting(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Count: 1}))

	if _, err := p.Fetch(ids[0]); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("fetch under read fault: %v", err)
	}
	s := p.Stats()
	if s.Misses != 1 || s.ReadErrors != 1 || s.Hits != 0 {
		t.Errorf("stats %+v, want 1 miss, 1 read error", s)
	}
	if free, tabled := frameAccounting(p); free != p.NumFrames() || tabled != 0 {
		t.Errorf("failed load leaked a frame: %d free, %d tabled", free, tabled)
	}
	// The fault was transient; the page is fetchable again.
	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if pg.Data()[0] != 1 {
		t.Error("recovered fetch returned wrong data")
	}
	pg.Unpin(false)
	if s := p.Stats(); s.Misses != 2 || s.ReadErrors != 1 {
		t.Errorf("stats after recovery %+v, want 2 misses, 1 read error", s)
	}
}

// TestCoalescedWaitersReadFault parks a doomed miss read behind the Delay
// gate, piles coalescing waiters onto the in-flight frame, then lets the
// read fail: every waiter must observe the error, each counts one miss and
// one coalesce, the read error is counted exactly once, and the last
// participant out frees the frame exactly once.
func TestCoalescedWaitersReadFault(t *testing.T) {
	var gate atomic.Bool
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	d := newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if gate.Load() {
			once.Do(func() { close(blocked) })
			<-release
		}
	}})
	ids := allocPages(t, d, 1)
	id := ids[0]
	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Count: 1}))
	gate.Store(true)

	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	const waiters = 6
	var wg sync.WaitGroup
	var failures atomic.Uint64
	fetch := func() {
		defer wg.Done()
		if _, err := p.Fetch(id); errors.Is(err, storage.ErrInjectedFault) {
			failures.Add(1)
		} else {
			t.Errorf("fetch of doomed page: %v, want injected fault", err)
		}
	}
	wg.Add(1)
	go fetch() // the loader, parked inside its doomed disk read
	<-blocked
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go fetch()
	}
	for waitersIn := 0; waitersIn < waiters; {
		waitersIn = int(p.frameFor(id).pins()) - 1
	}
	gate.Store(false)
	close(release)
	wg.Wait()

	if got := failures.Load(); got != waiters+1 {
		t.Errorf("%d fetchers saw the injected fault, want %d", got, waiters+1)
	}
	s := p.Stats()
	if s.Misses != waiters+1 || s.Coalesced != waiters || s.ReadErrors != 1 || s.Hits != 0 {
		t.Errorf("stats %+v, want %d misses, %d coalesced, 1 read error", s, waiters+1, waiters)
	}
	if free, tabled := frameAccounting(p); free != p.NumFrames() || tabled != 0 {
		t.Errorf("frame freed %d times across %d participants: %d free, %d tabled",
			p.NumFrames()-tabled, waiters+1, free, tabled)
	}
	// Recovery: the fault is exhausted, so the page loads cleanly.
	pg, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if s := p.Stats(); s.Misses != waiters+2 {
		t.Errorf("recovery fetch not counted: %+v", s)
	}
}

// TestFlushPageFaultKeepsDirty: a failed FlushPage leaves the page dirty
// and resident so nothing is lost, and counts one write error.
func TestFlushPageFaultKeepsDirty(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 1)
	id := ids[0]
	p := New(d, 2, core.NewSyncReplacer(2, core.Options{}))
	pg, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("dirtydata"))
	pg.Unpin(true)

	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Count: 1}))
	if err := p.FlushPage(id); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("FlushPage under write fault: %v", err)
	}
	if s := p.Stats(); s.WriteErrors != 1 || s.WriteBacks != 0 {
		t.Errorf("stats %+v, want 1 write error, 0 write-backs", s)
	}
	// Still dirty: the retry persists the data.
	if err := p.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:9]) != "dirtydata" {
		t.Errorf("flushed page holds %q", buf[:9])
	}
	if s := p.Stats(); s.WriteBacks != 1 {
		t.Errorf("retry flush not counted: %+v", s)
	}
}

// TestSerialWriteBackFaultRestoresVictim: the Serial reference pool keeps
// its single-attempt error policy, but a failed write-back must reinstate
// the victim in the replacer — losing the entry made the page permanently
// unevictable (a frame leak).
func TestSerialWriteBackFaultRestoresVictim(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	a, b := ids[0], ids[1]
	p := NewSerial(d, 1, core.NewReplacer(2, core.Options{}))
	pg, err := p.Fetch(a)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data()[0]++
	pg.Unpin(true)

	d.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpWrite, Count: 1}))
	if _, err := p.Fetch(b); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("Serial fetch with poisoned victim: %v", err)
	}
	if s := p.Stats(); s.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d, want 1", s.WriteErrors)
	}
	// The victim must be choosable again once the fault clears.
	pg, err = p.Fetch(b)
	if err != nil {
		t.Fatalf("Serial pool wedged after a transient write fault: %v", err)
	}
	pg.Unpin(false)
	if p.Resident(a) {
		t.Error("old victim still resident in a 1-frame pool")
	}
}
