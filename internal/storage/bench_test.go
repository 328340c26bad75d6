package storage_test

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// BenchmarkBackendRead prices the injection wrapper's traversal on the
// miss path: a page read from the bare simulator, through the never-armed
// WithFaults stage every db.Open stack carries, and through a stage whose
// armed plan matches nothing (the lock-and-lookup slow path). Each runs on
// one goroutine and under RunParallel.
func BenchmarkBackendRead(b *testing.B) {
	const pages = 1024
	stacks := []struct {
		name  string
		build func(storage.Backend) storage.Backend
	}{
		{"sim", func(base storage.Backend) storage.Backend { return base }},
		{"faults-unarmed", func(base storage.Backend) storage.Backend { return storage.WithFaults(base) }},
		{"faults-armed", func(base storage.Backend) storage.Backend {
			f := storage.WithFaults(base)
			f.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Op: storage.OpRead, Pages: []policy.PageID{-1}}))
			return f
		}},
	}
	for _, st := range stacks {
		base := sim.New(sim.ServiceModel{})
		for i := 0; i < pages; i++ {
			storage.MustAllocate(base)
		}
		be := st.build(base)
		b.Run(st.name+"/serial", func(b *testing.B) {
			buf := make([]byte, storage.PageSize)
			for i := 0; i < b.N; i++ {
				if err := be.Read(ctx, policy.PageID(i%pages), buf); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(st.name+"/parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				buf := make([]byte, storage.PageSize)
				for i := 0; pb.Next(); i++ {
					if err := be.Read(ctx, policy.PageID(i%pages), buf); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
