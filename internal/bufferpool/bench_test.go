package bufferpool

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// BenchmarkPoolParallel compares the seed's single-latch pool (Serial)
// against the latch-partitioned Pool on the same skewed workload, with the
// disk's service time injected as real (scaled-down) latency so misses
// cost wall-clock time. The serial pool holds its one mutex across that
// latency; the concurrent pool performs I/O outside the latch, so
// throughput should scale with goroutines.
//
//	go test -bench BenchmarkPoolParallel -benchtime 2s ./internal/bufferpool/
func BenchmarkPoolParallel(b *testing.B) {
	const (
		pages   = 4096
		frames  = 512
		hotSet  = 256
		dirtyPc = 10 // percent of private-page ops that dirty the page
	)
	// 1 simulated ms = 1 real µs: a ~10.1 ms random I/O sleeps ~10 µs.
	model := sim.ServiceModel{
		SeekMicros:     10000,
		TransferMicros: 100,
		Delay: func(micros int64) {
			time.Sleep(time.Duration(micros) * time.Microsecond / 1000)
		},
	}
	type pool interface {
		fetchRelease(id policy.PageID, dirty bool) error
	}
	builders := []struct {
		name  string
		build func(d *storage.Faulty) pool
	}{
		{"serial", func(d *storage.Faulty) pool {
			return serialBench{NewSerial(d, frames, core.NewReplacer(2, core.Options{}))}
		}},
		{"pool", func(d *storage.Faulty) pool {
			return poolBench{New(d, frames, core.NewSyncReplacer(2, core.Options{}))}
		}},
	}
	for _, workers := range []int{1, 4, 8, 16} {
		for _, impl := range builders {
			b.Run(fmt.Sprintf("impl=%s/goroutines=%d", impl.name, workers), func(b *testing.B) {
				d := newFaultyDisk(model)
				for i := 0; i < pages; i++ {
					d.Allocate()
				}
				p := impl.build(d)
				// Private pages give each goroutine a race-free dirty target.
				private := make([]policy.PageID, workers)
				for i := range private {
					private[i] = policy.PageID(pages - 1 - i)
				}
				// Warm the hot set so the timed region measures steady-state
				// behaviour, not the cold-start miss storm.
				for i := 0; i < hotSet; i++ {
					if err := p.fetchRelease(policy.PageID(i), false); err != nil {
						b.Fatal(err)
					}
				}
				for _, id := range private {
					if err := p.fetchRelease(id, false); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / workers
				for w := 0; w < workers; w++ {
					extra := 0
					if w == 0 {
						extra = b.N - per*workers
					}
					wg.Add(1)
					go func(w, n int) {
						defer wg.Done()
						r := stats.NewRNG(uint64(w + 1))
						for i := 0; i < n; i++ {
							var id policy.PageID
							dirty := false
							switch op := r.Intn(100); {
							case op < 70: // hot shared read
								id = policy.PageID(r.Intn(hotSet))
							case op < 90: // cold shared read
								id = policy.PageID(hotSet + r.Intn(pages-hotSet-workers))
							default: // private page, sometimes dirtied
								id = private[w]
								dirty = r.Intn(100) < dirtyPc
							}
							if err := p.fetchRelease(id, dirty); err != nil {
								b.Error(err)
								return
							}
						}
					}(w, per+extra)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkPoolHit isolates the resident-hit path: a hot set smaller than
// the pool is warmed once, then every timed fetch is a buffer hit — no
// disk I/O, no eviction, just the page-table probe, the pin handshake and
// the replacer's reference bookkeeping. This is the §2.1 cost the paper
// requires to be negligible on every reference; BENCH_hotpath.json tracks
// its ns/op trajectory at 1/4/8/16 goroutines over both storage backends
// (the backend only serves the warm-up, but its stripe geometry shapes
// the pool). impl=serial is the single-latch oracle; impl=pool is the
// production pool on core.SyncReplacer, so its contended rows time the
// one replacer mutex every hit takes.
//
//	go test -bench BenchmarkPoolHit -benchtime 2s ./internal/bufferpool/
func BenchmarkPoolHit(b *testing.B) {
	const (
		frames = 512
		hotSet = 256
	)
	type pool interface {
		fetchRelease(id policy.PageID, dirty bool) error
	}
	builders := []struct {
		name  string
		build func(d storage.Backend) pool
	}{
		{"serial", func(d storage.Backend) pool {
			return serialBench{NewSerial(d, frames, core.NewReplacer(2, core.Options{}))}
		}},
		{"pool", func(d storage.Backend) pool {
			return poolBench{New(d, frames, core.NewSyncReplacer(2, core.Options{}))}
		}},
	}
	backends := []struct {
		name string
		open func(b *testing.B) storage.Backend
	}{
		{"sim", func(b *testing.B) storage.Backend { return sim.New(sim.ServiceModel{}) }},
		{"file", func(b *testing.B) storage.Backend {
			s, err := file.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return s
		}},
	}
	for _, be := range backends {
		for _, workers := range []int{1, 4, 8, 16} {
			for _, impl := range builders {
				b.Run(fmt.Sprintf("backend=%s/impl=%s/goroutines=%d", be.name, impl.name, workers), func(b *testing.B) {
					d := be.open(b)
					ids := make([]policy.PageID, hotSet)
					for i := range ids {
						ids[i] = storage.MustAllocate(d)
					}
					p := impl.build(d)
					for _, id := range ids {
						if err := p.fetchRelease(id, false); err != nil {
							b.Fatal(err)
						}
					}
					b.ResetTimer()
					var wg sync.WaitGroup
					per := b.N / workers
					for w := 0; w < workers; w++ {
						extra := 0
						if w == 0 {
							extra = b.N - per*workers
						}
						wg.Add(1)
						go func(w, n int) {
							defer wg.Done()
							r := stats.NewRNG(uint64(w + 1))
							for i := 0; i < n; i++ {
								if err := p.fetchRelease(ids[r.Intn(hotSet)], false); err != nil {
									b.Error(err)
									return
								}
							}
						}(w, per+extra)
					}
					wg.Wait()
				})
			}
		}
	}
}

type serialBench struct{ p *Serial }

func (s serialBench) fetchRelease(id policy.PageID, dirty bool) error {
	pg, err := s.p.Fetch(id)
	if err != nil {
		return err
	}
	if dirty {
		pg.Data()[0]++
	}
	pg.Unpin(dirty)
	return nil
}

type poolBench struct{ p *Pool }

func (s poolBench) fetchRelease(id policy.PageID, dirty bool) error {
	pg, err := s.p.Fetch(id)
	if err != nil {
		return err
	}
	if dirty {
		pg.Data()[0]++
	}
	pg.Unpin(dirty)
	return nil
}
