package core

import (
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/stats"
)

// TestBatchedStaleAccessDropped is the phantom-reference regression: a hit
// buffered for a page that leaves residency before the drain must be
// discarded, not applied — unbatched RecordAccess would misread it as an
// admission and fabricate a resident HIST block for a page the pool no
// longer holds. The eviction here deliberately bypasses the Batched
// wrapper (which would flush first) to force the stale window.
func TestBatchedStaleAccessDropped(t *testing.T) {
	s := NewSyncReplacer(2, Options{})
	b := NewBatched(s, BatchConfig{})
	const p = policy.PageID(7)

	b.RecordAdmission(p)
	b.SetEvictable(p, true)
	b.FlushPending()
	if got := s.Size(); got != 1 {
		t.Fatalf("Size after admission flush = %d, want 1", got)
	}

	// Buffer a hit, then evict the page directly on the target, as a racing
	// eviction search that drained the slots just before this enqueue would.
	b.RecordAccess(p)
	if v, ok := s.Evict(); !ok || v != p {
		t.Fatalf("Evict = (%d, %v), want (%d, true)", v, ok, p)
	}
	b.FlushPending()

	if got := b.BatchStats().Dropped; got != 1 {
		t.Errorf("Dropped = %d, want 1 (stale access not discarded)", got)
	}
	if h := s.r.table.pages[p]; h == nil {
		t.Error("history block vanished entirely")
	} else if h.resident {
		t.Error("stale buffered access re-admitted the evicted page (phantom HIST)")
	}
	if got := s.Size(); got != 0 {
		t.Errorf("Size after stale drain = %d, want 0", got)
	}
}

// TestBatchedMatchesUnbatchedRandomOps replays seeded random operation
// sequences — references, fused pins, evictability flips, evictions,
// restores, removals — through an unbatched SyncReplacer and a Batched one
// with a small capacity (so full-slot drains, not only explicit flushes,
// split the sequence at arbitrary points). Victim choices and final policy
// counters must match exactly: batching is observationally equivalent to
// the unbatched replacer on any serialisable history, with both §2.1
// periods enabled.
//
// The generator honours the pool's contract — RecordAccess and RecordPin
// are issued only for resident pages, misses go through RecordAdmission —
// because that contract is exactly where the two sides are allowed to
// differ: an unbatched reference to a departed page fabricates a HIST
// block, a batched one is deliberately dropped (the phantom regression
// above).
func TestBatchedMatchesUnbatchedRandomOps(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		opts := Options{CorrelatedReferencePeriod: 2, RetainedInformationPeriod: 30}
		plain := NewSyncReplacer(2, opts)
		batched := NewBatched(NewSyncReplacer(2, opts), BatchConfig{Capacity: 7})

		rng := stats.NewRNG(seed)
		const pages = 24
		resident := make(map[policy.PageID]bool)
		admit := func(p policy.PageID) {
			plain.RecordAdmission(p)
			batched.RecordAdmission(p)
			resident[p] = true
		}
		for op := 0; op < 20000; op++ {
			p := policy.PageID(rng.Intn(pages))
			switch rng.Intn(10) {
			case 0, 1, 2:
				if !resident[p] {
					admit(p)
					break
				}
				plain.RecordAccess(p)
				batched.RecordAccess(p)
			case 3:
				admit(p)
			case 4:
				// The pool's fused zero-crossing hit.
				if !resident[p] {
					admit(p)
					break
				}
				plain.RecordAccess(p)
				plain.SetEvictable(p, false)
				batched.RecordPin(p)
			case 5, 6:
				plain.SetEvictable(p, true)
				batched.SetEvictable(p, true)
			case 7:
				plain.SetEvictable(p, false)
				batched.SetEvictable(p, false)
			case 8:
				v1, ok1 := plain.Evict()
				v2, ok2 := batched.Evict()
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("seed %d op %d: Evict diverged: (%d,%v) vs (%d,%v)", seed, op, v1, ok1, v2, ok2)
				}
				if ok1 {
					resident[v1] = false
					if rng.Intn(2) == 0 {
						plain.Restore(v1)
						batched.Restore(v2)
						plain.SetEvictable(v1, true)
						batched.SetEvictable(v2, true)
						resident[v1] = true
					}
				}
			case 9:
				plain.Remove(p)
				batched.Remove(p)
				resident[p] = false
			}
		}
		if got, want := batched.PolicyStats(), plain.PolicyStats(); got != want {
			t.Errorf("seed %d: policy stats %+v, want unbatched %+v", seed, got, want)
		}
		if got, want := batched.HistorySize(), plain.HistorySize(); got != want {
			t.Errorf("seed %d: history size %d, want %d", seed, got, want)
		}
		// Drain the victim index on both sides: the full eviction order must
		// agree, which pins the victim index contents and keys exactly.
		for {
			v1, ok1 := plain.Evict()
			v2, ok2 := batched.Evict()
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("seed %d: final eviction order diverged: (%d,%v) vs (%d,%v)", seed, v1, ok1, v2, ok2)
			}
			if !ok1 {
				break
			}
		}
	}
}

// TestBatchedConcurrentDrainSafety hammers a Batched ShardedReplacer from
// many goroutines (references, flips, evictions, restores) to give the
// race detector the enqueue/drain/flush interleavings; correctness of the
// final counters is covered by the deterministic tests above.
func TestBatchedConcurrentDrainSafety(t *testing.T) {
	b := NewBatched(NewShardedReplacer(4, 2, Options{RetainedInformationPeriod: 50}), BatchConfig{Capacity: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(g + 1))
			for i := 0; i < 4000; i++ {
				p := policy.PageID(rng.Intn(64))
				switch rng.Intn(8) {
				case 0:
					b.RecordAdmission(p)
				case 1:
					b.RecordPin(p)
				case 2, 3:
					b.RecordAccess(p)
				case 4:
					b.SetEvictable(p, true)
				case 5:
					b.SetEvictable(p, false)
				case 6:
					if v, ok := b.Evict(); ok && rng.Intn(2) == 0 {
						b.Restore(v)
						b.SetEvictable(v, true)
					}
				case 7:
					b.Remove(p)
				}
			}
		}(g)
	}
	wg.Wait()
	st := b.BatchStats()
	if st.Events == 0 || st.Drains == 0 {
		t.Errorf("storm recorded no drains: %+v", st)
	}
	// The wrapper must still be coherent: a full flush and stats read
	// cannot deadlock or trip the race detector, and sizes are sane.
	if got := b.Size(); got < 0 || got > 64 {
		t.Errorf("Size after storm = %d", got)
	}
}

// TestShardedTraceDistancesShareClock is the /trace comparability
// regression: Backward K-distances reported by different shards of a
// ShardedReplacer must be measured on one shared arrival clock. With the
// old per-shard clocks, pages in different shards were timestamped at
// their shard's private reference rate, so distances in a merged eviction
// trace were incomparable — and wrong relative to Definition 2.1 over the
// global reference string.
func TestShardedTraceDistancesShareClock(t *testing.T) {
	r := NewShardedReplacer(4, 2, Options{})
	a := policy.PageID(0)
	b := policy.PageID(1)
	for p := policy.PageID(1); r.shard(b) == r.shard(a); p++ {
		b = p
	}

	touch := func(p policy.PageID) {
		r.RecordAccess(p)
		r.SetEvictable(p, true)
	}
	// Global reference string a,b,a,b: arrival ticks 1..4. At clock 4,
	// HIST(a) = [3,1] and HIST(b) = [4,2], so b_4(a,2) = 3 and
	// b_4(b,2) = 2 (Definition 2.1). Per-shard clocks would have stamped
	// both pages 1,2 and reported equal distances.
	touch(a)
	touch(b)
	touch(a)
	touch(b)

	rec := &recordingTracer{}
	r.SetTracer(rec)
	for i := 0; i < 2; i++ {
		if _, ok := r.Evict(); !ok {
			t.Fatal("expected two evictable pages")
		}
	}
	want := map[policy.PageID]policy.Tick{a: 3, b: 2}
	if len(rec.evicts) != 2 {
		t.Fatalf("traced %d evictions, want 2", len(rec.evicts))
	}
	for _, ev := range rec.evicts {
		if ev.infinite {
			t.Errorf("page %d traced an infinite distance after two references", ev.page)
			continue
		}
		if ev.kdist != want[ev.page] {
			t.Errorf("page %d traced K-distance %d, want %d on the shared clock", ev.page, ev.kdist, want[ev.page])
		}
		if ev.clock != 4 {
			t.Errorf("page %d traced at clock %d, want the global arrival clock 4", ev.page, ev.clock)
		}
	}
}
