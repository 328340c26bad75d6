package bufferpool

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// hitBench measures the steady-state resident-hit cost of one pool
// configuration: warm a hot set, then time random hit fetches from a
// single goroutine (single-goroutine numbers are far more stable on
// shared CI hardware than contended ones, and the guarded regressions —
// a lock, an allocation, an eager tree update back on the hit path —
// inflate them just the same).
func hitBench(build func(d storage.Backend) *Pool) testing.BenchmarkResult {
	const hotSet = 256
	return testing.Benchmark(func(b *testing.B) {
		d := sim.New(sim.ServiceModel{})
		ids := make([]policy.PageID, hotSet)
		for i := range ids {
			ids[i] = storage.MustAllocate(d)
		}
		p := build(d)
		bench := poolBench{p}
		for _, id := range ids {
			if err := bench.fetchRelease(id, false); err != nil {
				b.Fatal(err)
			}
		}
		r := stats.NewRNG(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bench.fetchRelease(ids[r.Intn(hotSet)], false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestHitPathCeiling is the hot-path regression gate behind `make
// bench-hit` (and `make check`): the batched pool's resident-hit cost must
// stay under an absolute ceiling and must not fall behind the eagerly
// locked sharded pool it exists to beat. The batched configuration
// measures ~240 ns/op on a 2-CPU container; the ceiling is over 5x that
// so loaded CI boxes do not flake, while still catching the regressions
// that motivated the fast path (a replacer latch back on it, an index
// re-key per reference, a per-hit allocation). Skipped under -race (the
// detector multiplies atomic costs) and in -short mode.
func TestHitPathCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("hit-path ceiling is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping hit-path ceiling in short mode")
	}
	batched := hitBench(func(d storage.Backend) *Pool {
		return NewWithConfig(d, 512,
			core.NewBatched(core.NewShardedReplacer(16, 2, core.Options{}), core.BatchConfig{}),
			Config{})
	})
	const ceilingNs = 1300
	if got := batched.NsPerOp(); got > ceilingNs {
		t.Errorf("batched hit costs %d ns/op, ceiling %d ns", got, ceilingNs)
	}
	sharded := hitBench(func(d storage.Backend) *Pool {
		return NewWithConfig(d, 512,
			core.NewShardedReplacer(16, 2, core.Options{}), Config{})
	})
	// Relative gate, immune to the host's absolute speed: with batching on,
	// a hit must not cost more than the unbatched pool's (the 20% slack
	// absorbs scheduler noise). Neither configuration re-keys the victim
	// index per reference, so on one goroutine the two measure within a few
	// percent of each other (~240 vs ~250 ns/op on a 2-CPU container): the
	// slack is noise margin, not a batching win.
	if b, s := batched.NsPerOp(), sharded.NsPerOp(); float64(b) > 1.2*float64(s) {
		t.Errorf("batched hit costs %d ns/op vs unbatched sharded %d ns/op; batching made the hit path slower", b, s)
	}
}
