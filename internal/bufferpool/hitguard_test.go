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
// bench-hit` (and `make check`): the production pool's resident-hit cost —
// the pool on core.SyncReplacer, as db.Open builds it — must stay under an
// absolute ceiling. That configuration measures ~190–270 ns/op on a 2-CPU
// container; the ceiling is over 4x that so loaded CI boxes do not flake,
// while still catching the regressions the latch-free probe and the lazy
// victim heap removed (a page-table latch back on the hit, an index re-key
// per reference, a per-hit allocation). Skipped under -race (the detector
// multiplies atomic costs) and in -short mode.
func TestHitPathCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("hit-path ceiling is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping hit-path ceiling in short mode")
	}
	res := hitBench(func(d storage.Backend) *Pool {
		return NewWithConfig(d, 512, core.NewSyncReplacer(2, core.Options{}), Config{})
	})
	const ceilingNs = 1300
	if got := res.NsPerOp(); got > ceilingNs {
		t.Errorf("pool hit costs %d ns/op, ceiling %d ns", got, ceilingNs)
	}
}
