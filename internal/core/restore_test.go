package core

import (
	"testing"

	"repro/internal/policy"
)

// TestRestorePreservesHistory is the regression test for the phantom-
// reference bug: abandoning an eviction used to call RecordAccess, which
// advanced the clock and rewrote HIST(p,1) with a reference that never
// happened, corrupting the page's Backward K-distance. Restore must
// reinstate residency with the HIST block and the clock bit-for-bit
// unchanged.
func TestRestorePreservesHistory(t *testing.T) {
	r := NewReplacer(2, Options{})
	// Page 1: two uncorrelated references (finite Backward K-distance).
	// Page 2: one reference (infinite distance, so it sorts as victim).
	r.RecordAccess(1)
	r.SetEvictable(1, true)
	r.RecordAccess(2)
	r.SetEvictable(2, true)
	r.RecordAccess(1)

	victim, ok := r.Evict()
	if !ok || victim != 2 {
		t.Fatalf("Evict = (%d, %v), want page 2 (infinite distance)", victim, ok)
	}

	h := r.table.pages[1]
	timesBefore := append([]policy.Tick(nil), h.times...)
	lastBefore := h.last
	clockBefore := r.table.clock

	// Abandon an eviction of page 1 and restore it.
	victim, ok = r.Evict()
	if !ok || victim != 1 {
		t.Fatalf("Evict = (%d, %v), want page 1", victim, ok)
	}
	r.Restore(1)
	r.SetEvictable(1, true)

	if r.table.clock != clockBefore {
		t.Errorf("clock advanced %d -> %d across an abandoned eviction", clockBefore, r.table.clock)
	}
	h = r.table.pages[1]
	if h == nil || !h.resident {
		t.Fatal("restored page not resident")
	}
	if h.last != lastBefore {
		t.Errorf("LAST rewritten %d -> %d by Restore", lastBefore, h.last)
	}
	for i, tm := range h.times {
		if tm != timesBefore[i] {
			t.Errorf("HIST[%d] rewritten %d -> %d by Restore", i, timesBefore[i], tm)
		}
	}
	// The page must be choosable again, at its original index position.
	if victim, ok = r.Evict(); !ok || victim != 1 {
		t.Errorf("Evict after restore = (%d, %v), want page 1", victim, ok)
	}
}

// TestRestoreVictimOrderMatchesUndisturbedReplacer replays the same
// reference history through two replacers; one suffers an abandoned
// eviction mid-stream. Their subsequent victim order must be identical —
// the old RecordAccess-based restoration made the restored page look
// freshly referenced and reordered evictions.
func TestRestoreVictimOrderMatchesUndisturbedReplacer(t *testing.T) {
	build := func() *Replacer {
		r := NewReplacer(2, Options{})
		for _, p := range []policy.PageID{1, 2, 3, 1, 2, 3, 2} {
			r.RecordAccess(p)
			r.SetEvictable(p, true)
		}
		return r
	}
	disturbed, control := build(), build()
	v, ok := disturbed.Evict()
	if !ok {
		t.Fatal("nothing evictable")
	}
	disturbed.Restore(v)
	disturbed.SetEvictable(v, true)
	for i := 0; i < 3; i++ {
		dv, dok := disturbed.Evict()
		cv, cok := control.Evict()
		if dv != cv || dok != cok {
			t.Fatalf("eviction %d: disturbed (%d,%v) != control (%d,%v)", i, dv, dok, cv, cok)
		}
	}
}

// TestRestoreAfterPurge covers the fallback: with a short Retained
// Information Period the history block can be purged between Evict and
// Restore, and Restore must re-create residency rather than panic.
func TestRestoreAfterPurge(t *testing.T) {
	r := NewReplacer(2, Options{RetainedInformationPeriod: 2})
	r.RecordAccess(1)
	r.SetEvictable(1, true)
	if v, ok := r.Evict(); !ok || v != 1 {
		t.Fatalf("Evict = (%d, %v)", v, ok)
	}
	// Tick the clock past the RIP so page 1's retired block is purged.
	for p := policy.PageID(2); p < 8; p++ {
		r.RecordAccess(p)
	}
	if _, ok := r.table.pages[1]; ok {
		t.Fatal("test setup: history block survived the purge")
	}
	r.Restore(1)
	h, ok := r.table.pages[1]
	if !ok || !h.resident {
		t.Fatal("Restore after purge did not re-create residency")
	}
	r.SetEvictable(1, true)
	if r.Size() != 1 {
		t.Errorf("Size = %d after restore, want 1 (only page 1 is evictable)", r.Size())
	}
	if v, ok := r.Evict(); !ok || v != 1 {
		t.Errorf("Evict after restore-from-purge = (%d, %v), want page 1", v, ok)
	}
}

// TestRestoreDelegation exercises SyncReplacer's Restore plumbing.
func TestRestoreDelegation(t *testing.T) {
	r := NewSyncReplacer(2, Options{})
	r.RecordAccess(9)
	r.SetEvictable(9, true)
	if v, ok := r.Evict(); !ok || v != 9 {
		t.Fatalf("Evict = (%d, %v)", v, ok)
	}
	r.Restore(9)
	r.SetEvictable(9, true)
	if v, ok := r.Evict(); !ok || v != 9 {
		t.Errorf("restored page not evictable again: (%d, %v)", v, ok)
	}
}
