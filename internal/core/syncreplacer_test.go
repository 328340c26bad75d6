package core

import (
	"sync"
	"testing"

	"repro/internal/policy"
	"repro/internal/stats"
)

// TestSyncReplacerMatchesPlain drives a plain Replacer and a SyncReplacer
// through the same randomised call history; every return value must match,
// since the wrapper adds only a lock.
func TestSyncReplacerMatchesPlain(t *testing.T) {
	plain := NewReplacer(2, Options{})
	wrapped := NewSyncReplacer(2, Options{})
	r := stats.NewRNG(42)
	for i := 0; i < 20000; i++ {
		p := policy.PageID(r.Intn(200))
		switch r.Intn(10) {
		case 0, 1, 2, 3:
			plain.RecordAccess(p)
			wrapped.RecordAccess(p)
		case 4, 5, 6:
			ev := r.Intn(2) == 0
			plain.SetEvictable(p, ev)
			wrapped.SetEvictable(p, ev)
		case 7:
			plain.Remove(p)
			wrapped.Remove(p)
		default:
			v1, ok1 := plain.Evict()
			v2, ok2 := wrapped.Evict()
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("op %d: Evict = (%d,%v) vs plain (%d,%v)", i, v2, ok2, v1, ok1)
			}
		}
		if plain.Size() != wrapped.Size() {
			t.Fatalf("op %d: Size diverged: %d vs %d", i, wrapped.Size(), plain.Size())
		}
	}
	if plain.HistorySize() != wrapped.HistorySize() {
		t.Errorf("HistorySize diverged: %d vs %d", wrapped.HistorySize(), plain.HistorySize())
	}
}

// TestSyncReplacerConcurrent hammers all operations from many
// goroutines; the race detector checks the locking, and the final drain
// checks structural integrity.
func TestSyncReplacerConcurrent(t *testing.T) {
	r := NewSyncReplacer(2, Options{})
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := stats.NewRNG(seed)
			for i := 0; i < 10000; i++ {
				p := policy.PageID(rng.Intn(500))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					r.RecordAccess(p)
				case 4, 5:
					r.SetEvictable(p, true)
				case 6:
					r.SetEvictable(p, false)
				case 7:
					r.Remove(p)
				case 8:
					r.Evict()
				default:
					r.Size()
					r.HistorySize()
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	// Drain: each remaining evictable page must come out exactly once.
	seen := make(map[policy.PageID]bool)
	for {
		v, ok := r.Evict()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("page %d evicted twice during drain", v)
		}
		seen[v] = true
	}
	if got := r.Size(); got != 0 {
		t.Errorf("Size = %d after drain, want 0", got)
	}
}
