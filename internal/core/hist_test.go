package core

import (
	"testing"

	"repro/internal/policy"
)

// TestRetireQueueMemoryBounded is the regression test for the retention
// queue's backing-array leak: popping with retire = retire[1:] kept the
// burst-peak array pinned forever (the slice could never reuse its front,
// and with enough spare capacity never reallocated). After a large
// retirement burst fully drains, the queue must hold only a small backing
// array.
func TestRetireQueueMemoryBounded(t *testing.T) {
	const (
		rip   = 100
		burst = 1 << 16
	)
	// Fill with a RIP too long to purge anything mid-burst, then shorten it
	// for the drain phase.
	tbl := newHistTable(2, 0, policy.Tick(1<<40))
	for i := 0; i < burst; i++ {
		p := policy.PageID(i)
		h := tbl.admit(p, tbl.tick(), false)
		tbl.evictResident(h)
	}
	if got := tbl.retireLen(); got != burst {
		t.Fatalf("retire queue holds %d entries after burst, want %d", got, burst)
	}
	peak := cap(tbl.retire)
	tbl.rip = rip
	// Run the clock forward so the retention demon drains the whole queue.
	for i := 0; tbl.retireLen() > 0; i++ {
		tbl.tick()
		if i > burst+rip+1 {
			t.Fatal("retention demon did not drain the queue")
		}
	}
	if tbl.historyLen() != 0 {
		t.Errorf("%d history blocks survive a full drain", tbl.historyLen())
	}
	if c := cap(tbl.retire); c >= peak/4 {
		t.Errorf("drained retire queue still pins cap %d of peak %d", c, peak)
	}
}

// TestRetireQueueBoundedUnderSteadyChurn drives a long steady-state
// admit/evict churn: the backing array must stay proportional to the live
// window (bounded by the Retained Information Period), not grow with the
// total number of retirements.
func TestRetireQueueBoundedUnderSteadyChurn(t *testing.T) {
	const rip = 64
	tbl := newHistTable(1, 0, rip)
	maxCap := 0
	for i := 0; i < 1<<16; i++ {
		p := policy.PageID(i)
		h := tbl.admit(p, tbl.tick(), false)
		tbl.evictResident(h)
		if c := cap(tbl.retire); c > maxCap {
			maxCap = c
		}
	}
	// Live entries never exceed ~rip+1; allow compaction hysteresis room.
	if limit := 16 * (rip + retireCompactMin); maxCap > limit {
		t.Errorf("retire queue cap peaked at %d under steady churn, want <= %d", maxCap, limit)
	}
}

// TestDropOldestRetainedCompacts drains a retirement burst through the
// budgeted policy's dropOldestRetained path, which must release the
// backing array just like the demon's purge.
func TestDropOldestRetainedCompacts(t *testing.T) {
	const burst = 1 << 14
	tbl := newHistTable(2, 0, 1<<40) // RIP so large nothing purges on tick
	for i := 0; i < burst; i++ {
		p := policy.PageID(i)
		h := tbl.admit(p, tbl.tick(), false)
		tbl.evictResident(h)
	}
	peak := cap(tbl.retire)
	drops := 0
	for tbl.dropOldestRetained() {
		drops++
	}
	if drops != burst {
		t.Errorf("dropOldestRetained dropped %d blocks, want %d", drops, burst)
	}
	if tbl.retireLen() != 0 {
		t.Errorf("queue holds %d entries after full drain", tbl.retireLen())
	}
	if c := cap(tbl.retire); c >= peak/4 {
		t.Errorf("drained retire queue still pins cap %d of peak %d", c, peak)
	}
}

// TestRetireQueueStaleEntriesStillSkipped re-checks the lazy-validation
// protocol through the new queue plumbing: a page readmitted after
// retirement must not be purged by its stale queue entry.
func TestRetireQueueStaleEntriesStillSkipped(t *testing.T) {
	const rip = 10
	tbl := newHistTable(1, 0, rip)
	h := tbl.admit(1, tbl.tick(), false)
	tbl.evictResident(h)
	// Readmit before the entry expires: the queued entry goes stale.
	tbl.admit(1, tbl.tick(), false)
	for i := 0; i < 4*rip; i++ {
		tbl.tick()
	}
	if hh, ok := tbl.pages[1]; !ok || !hh.resident {
		t.Error("resident page purged through its stale retirement entry")
	}
}
