// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section 4) plus the ablation sweeps DESIGN.md calls out.
// Each table benchmark regenerates its table on every iteration and logs
// the rendered result once (visible with -v); cmd/tables produces the
// full-scale canonical versions.
//
// Benchmarks use modestly reduced trace lengths so `go test -bench=.`
// finishes in minutes; the reductions scale warm-up, measurement, and
// drift proportionally so every qualitative relationship of the full
// tables is preserved.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchmarkTable41 regenerates Table 4.1 (two-pool experiment: LRU-1,
// LRU-2, LRU-3 and A0 hit ratios plus B(1)/B(2) across buffer sizes).
func BenchmarkTable41(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunTable41(sim.Table41Config{Repeats: 2})
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkTable42 regenerates Table 4.2 (Zipfian 80-20 experiment: LRU-1,
// LRU-2, A0 plus B(1)/B(2)).
func BenchmarkTable42(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunTable42(sim.Table42Config{Repeats: 2})
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkTable43 regenerates Table 4.3 (synthetic OLTP trace: LRU-1,
// LRU-2, LFU plus B(1)/B(2)). The trace is shortened from 470k to 180k
// references with proportionally faster warm-set drift; run
// `cmd/tables -table 4.3` for the full-scale version.
func BenchmarkTable43(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunTable43(sim.Table43Config{
			OLTP:    workload.OLTPConfig{DriftEvery: 300},
			Refs:    180000,
			Warmup:  30000,
			Buffers: []int{100, 200, 600, 1000, 2000, 5000},
		})
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkKSweep is the §4.1 in-text ablation: LRU-K approaches A0 as K
// grows on the stable two-pool pattern.
func BenchmarkKSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunKSweep(100, 5, 2, 7)
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkAdaptivity is the evolving-access-pattern ablation: LRU-2
// versus LRU-3 versus LFU under a moving hot spot.
func BenchmarkAdaptivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunAdaptivity(250, 20000, 11)
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkScanResistance is the Example 1.2 ablation across the policy
// family.
func BenchmarkScanResistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunScanResistance(600, 13)
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkCRPSweep is the §2.1.1 ablation: Correlated Reference Period
// sensitivity on a bursty workload.
func BenchmarkCRPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunCRPSweep(120, []policy.Tick{0, 1, 2, 4, 8, 16}, 17)
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// BenchmarkRIPSweep is the §2.1.2 ablation: Retained Information Period
// sensitivity on the two-pool workload.
func BenchmarkRIPSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := sim.RunRIPSweep(120, []policy.Tick{100, 200, 400, 800, 1600, 0}, 19)
		if i == 0 {
			b.Logf("\n%s", t.Render())
		}
	}
}

// --- micro-benchmarks: per-reference cost of the policies themselves ---

func benchPolicy(b *testing.B, c policy.Cache, pages int) {
	b.Helper()
	g := workload.NewZipfian(pages, 0.8, 0.2, 1)
	trace := workload.Generate(g, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reference(trace[i&(1<<16-1)])
	}
}

// BenchmarkLRU2Reference measures the paper's claim that LRU-K "incurs
// little bookkeeping overhead": one reference through the full HIST/LAST
// machinery and the lazily re-keyed victim heap.
func BenchmarkLRU2Reference(b *testing.B) {
	benchPolicy(b, core.NewLRUK(1024, 2), 16384)
}

// BenchmarkLRU2ReferenceWithCRP adds the Correlated Reference Period and
// retained-history purge to the per-reference path.
func BenchmarkLRU2ReferenceWithCRP(b *testing.B) {
	benchPolicy(b, core.NewLRUKWithOptions(1024, 2, core.Options{
		CorrelatedReferencePeriod: 8,
		RetainedInformationPeriod: 8192,
	}), 16384)
}

// BenchmarkLRU1Reference is the classical-LRU baseline cost.
func BenchmarkLRU1Reference(b *testing.B) {
	benchPolicy(b, policy.NewLRU(1024), 16384)
}

// BenchmarkLFUReference is the O(1) frequency-list LFU cost.
func BenchmarkLFUReference(b *testing.B) {
	benchPolicy(b, policy.NewLFU(1024), 16384)
}

// BenchmarkARCReference is the ARC baseline cost.
func BenchmarkARCReference(b *testing.B) {
	benchPolicy(b, policy.NewARC(1024), 16384)
}

// BenchmarkTwoQReference is the 2Q baseline cost.
func BenchmarkTwoQReference(b *testing.B) {
	benchPolicy(b, policy.NewTwoQ(1024), 16384)
}

// BenchmarkConcurrentCache measures the sharded generic cache under a
// read-heavy mixed workload.
func BenchmarkConcurrentCache(b *testing.B) {
	cache, err := core.NewIntCache[int64](8192, core.CacheOptions{})
	if err != nil {
		b.Fatal(err)
	}
	g := workload.NewZipfian(65536, 0.8, 0.2, 1)
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = int64(g.Next())
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i&(1<<16-1)]
			if _, ok := cache.Get(k); !ok {
				cache.Put(k, k)
			}
			i++
		}
	})
}

// BenchmarkTPCA is the Example 1.1/[TPC-A] ablation: LRU-1 vs naive LRU-2
// vs LRU-2 with a transaction-spanning Correlated Reference Period on the
// TPC-A transaction stream (see examples/tpca).
func BenchmarkTPCA(b *testing.B) {
	run := func(k int, crp policy.Tick) float64 {
		g, err := workload.NewTPCA(workload.TPCAConfig{}, 5)
		if err != nil {
			b.Fatal(err)
		}
		c := core.NewLRUKWithOptions(600, k, core.Options{CorrelatedReferencePeriod: crp})
		hits, total := 0, 0
		for i := 0; i < 160000; i++ {
			hit := c.Reference(g.Next())
			if i >= 40000 {
				total++
				if hit {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	for i := 0; i < b.N; i++ {
		lru1 := run(1, 0)
		naive := run(2, 0)
		corrected := run(2, 8)
		if i == 0 {
			b.Logf("TPC-A B=600: LRU-1 %.3f, LRU-2/CRP=0 %.3f, LRU-2/CRP=8 %.3f", lru1, naive, corrected)
		}
	}
}

// BenchmarkBudgetedLRUK exercises the Section 5 future-work feature: a
// fixed memory budget dynamically split between frames and history blocks.
func BenchmarkBudgetedLRUK(b *testing.B) {
	g := workload.NewZipfian(16384, 0.8, 0.2, 1)
	trace := workload.Generate(g, 1<<16)
	c := core.NewBudgetedLRUK(1024, 2, 100, core.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reference(trace[i&(1<<16-1)])
	}
}
