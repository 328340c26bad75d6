package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// newFaultyDisk builds the simulated backend wrapped in fault injection —
// the handle pool tests drive faults, raw I/O, and ledger assertions
// through, exactly as the old disk.Manager was.
func newFaultyDisk(model sim.ServiceModel) *storage.Faulty {
	return storage.WithFaults(sim.New(model))
}

func newPool(t *testing.T, frames, k int) (*Pool, *storage.Faulty) {
	t.Helper()
	d := newFaultyDisk(sim.ServiceModel{})
	return New(d, frames, core.NewSyncReplacer(k, core.Options{})), d
}

func TestNewValidation(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	r := core.NewSyncReplacer(2, core.Options{})
	for _, f := range []func(){
		func() { New(nil, 4, r) },
		func() { New(d, 0, r) },
		func() { New(d, 4, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid New args accepted")
				}
			}()
			f()
		}()
	}
}

func TestNewPageFetchRoundTrip(t *testing.T) {
	p, _ := newPool(t, 4, 2)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := pg.ID()
	binary.LittleEndian.PutUint64(pg.Data(), 0xdeadbeef)
	pg.Unpin(true)

	pg2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(pg2.Data()); got != 0xdeadbeef {
		t.Errorf("data = %#x, want 0xdeadbeef", got)
	}
	pg2.Unpin(false)
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	p, d := newPool(t, 1, 2) // single frame forces immediate eviction
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	first := pg.ID()
	copy(pg.Data(), []byte("persisted"))
	pg.Unpin(true)

	// Bringing in a second page evicts the first, writing it back.
	pg2, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pg2.Unpin(false)
	if p.Resident(first) {
		t.Fatal("first page still resident in 1-frame pool")
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), first, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:9]) != "persisted" {
		t.Errorf("evicted dirty page not written back: %q", buf[:9])
	}
	if p.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d, want 1", p.Stats().WriteBacks)
	}

	// Refetching must restore the data.
	pg3, err := p.Fetch(first)
	if err != nil {
		t.Fatal(err)
	}
	if string(pg3.Data()[:9]) != "persisted" {
		t.Error("refetched page lost data")
	}
	pg3.Unpin(false)
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	p, _ := newPool(t, 2, 2)
	a, _ := p.NewPage()
	b, _ := p.NewPage()
	// Both pinned: a third page must fail.
	if _, err := p.NewPage(); !errors.Is(err, ErrNoFreeFrame) {
		t.Fatalf("NewPage with all pinned: %v", err)
	}
	b.Unpin(false)
	// Now one frame is reclaimable.
	c, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Resident(a.ID()) {
		t.Error("pinned page was evicted")
	}
	if p.Resident(b.ID()) {
		t.Error("unpinned page survived eviction in full pool")
	}
	a.Unpin(false)
	c.Unpin(false)
}

func TestPinCountSemantics(t *testing.T) {
	p, _ := newPool(t, 2, 2)
	pg, _ := p.NewPage()
	id := pg.ID()
	// Fetch the same page again: pin count 2.
	pg2, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	// Still pinned once: filling the pool must not evict it.
	x, _ := p.NewPage()
	if _, err := p.NewPage(); !errors.Is(err, ErrNoFreeFrame) {
		t.Fatalf("expected ErrNoFreeFrame, got %v", err)
	}
	pg2.Unpin(false)
	x.Unpin(false)
}

func TestHandleMisusePanics(t *testing.T) {
	p, _ := newPool(t, 2, 2)
	pg, _ := p.NewPage()
	pg.Unpin(false)
	for _, f := range []func(){
		func() { pg.Data() },
		func() { pg.Unpin(false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("handle misuse did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFetchUnknownPage(t *testing.T) {
	p, _ := newPool(t, 2, 2)
	if _, err := p.Fetch(12345); err == nil {
		t.Error("fetch of unallocated page succeeded")
	}
}

func TestFlushPageAndAll(t *testing.T) {
	p, d := newPool(t, 4, 2)
	pg, _ := p.NewPage()
	id := pg.ID()
	copy(pg.Data(), []byte("flushed"))
	pg.Unpin(true)
	if err := p.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:7]) != "flushed" {
		t.Error("FlushPage did not persist")
	}
	// Flushing a clean page is a no-op.
	wb := p.Stats().WriteBacks
	if err := p.FlushPage(id); err != nil {
		t.Fatal(err)
	}
	if p.Stats().WriteBacks != wb {
		t.Error("clean flush counted as write-back")
	}
	if err := p.FlushPage(99999); !errors.Is(err, ErrPageNotResident) {
		t.Errorf("flush non-resident: %v", err)
	}

	pg2, _ := p.NewPage()
	copy(pg2.Data(), []byte("also"))
	pg2.Unpin(true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(context.Background(), pg2.ID(), buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:4]) != "also" {
		t.Error("FlushAll did not persist")
	}
}

func TestDeletePage(t *testing.T) {
	p, d := newPool(t, 2, 2)
	pg, _ := p.NewPage()
	id := pg.ID()
	if err := p.DeletePage(id); err == nil {
		t.Error("delete of pinned page succeeded")
	}
	pg.Unpin(false)
	if err := p.DeletePage(id); err != nil {
		t.Fatal(err)
	}
	if p.Resident(id) {
		t.Error("deleted page still resident")
	}
	if got := p.replacer.Size(); got != 0 {
		t.Errorf("deleted page still evictable: Size = %d", got)
	}
	if d.NumPages() != 0 {
		t.Error("deleted page still on disk")
	}
	if _, err := p.Fetch(id); err == nil {
		t.Error("fetch of deallocated page succeeded")
	}
	checkFrameInvariant(t, p)
	// The freed frame is reusable.
	a, _ := p.NewPage()
	b, _ := p.NewPage()
	a.Unpin(false)
	b.Unpin(false)
}

// TestDeletePageAfterFetch deletes a page that entered the pool through
// Fetch — the replacer admission path — rather than through NewPage: the
// page must leave the replacer's evictable set, must not be fetchable
// again, and its frame must return to the free list.
func TestDeletePageAfterFetch(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	id := storage.MustAllocate(d)
	r := core.NewSyncReplacer(2, core.Options{})
	p := New(d, 4, r)
	pg, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(false)
	if err := p.DeletePage(id); err != nil {
		t.Fatal(err)
	}
	if got := r.Size(); got != 0 {
		t.Errorf("deleted page still evictable: Size = %d", got)
	}
	if _, err := p.Fetch(id); err == nil {
		t.Error("fetch of deallocated page succeeded")
	}
	free, tabled := frameAccounting(p)
	if free+tabled != p.NumFrames() {
		t.Errorf("frame accounting after delete: %d free + %d resident != %d", free, tabled, p.NumFrames())
	}
}

func TestStatsHitRatio(t *testing.T) {
	p, _ := newPool(t, 2, 2)
	pg, _ := p.NewPage()
	id := pg.ID()
	pg.Unpin(false)
	for i := 0; i < 3; i++ {
		h, _ := p.Fetch(id)
		h.Unpin(false)
	}
	s := p.Stats()
	if s.Hits != 3 || s.Misses != 1 {
		t.Errorf("stats %+v, want 3 hits 1 miss", s)
	}
	if s.HitRatio() != 0.75 {
		t.Errorf("HitRatio = %v", s.HitRatio())
	}
	if (Stats{}).HitRatio() != 0 {
		t.Error("empty HitRatio not 0")
	}
}

// TestLRUKReplacerBeatsLRUInPool is the end-to-end Example 1.1 smoke test
// at pool level: under an alternating hot/cold fetch pattern, an LRU-2
// replacer yields a higher pool hit ratio than LRU-1.
func TestLRUKReplacerBeatsLRUInPool(t *testing.T) {
	run := func(k int) float64 {
		d := newFaultyDisk(sim.ServiceModel{})
		hot := make([]policy.PageID, 20)
		cold := make([]policy.PageID, 2000)
		for i := range hot {
			hot[i] = storage.MustAllocate(d)
		}
		for i := range cold {
			cold[i] = storage.MustAllocate(d)
		}
		p := New(d, 25, core.NewSyncReplacer(k, core.Options{}))
		r := stats.NewRNG(99)
		for i := 0; i < 30000; i++ {
			var id policy.PageID
			if i%2 == 0 {
				id = hot[r.Intn(len(hot))]
			} else {
				id = cold[r.Intn(len(cold))]
			}
			pg, err := p.Fetch(id)
			if err != nil {
				t.Fatal(err)
			}
			pg.Unpin(false)
		}
		return p.Stats().HitRatio()
	}
	lru2, lru1 := run(2), run(1)
	if lru2 <= lru1 {
		t.Errorf("LRU-2 pool hit ratio %.3f not above LRU-1 %.3f", lru2, lru1)
	}
	if lru2 < 0.40 {
		t.Errorf("LRU-2 pool hit ratio %.3f; should approach 0.5 on this pattern", lru2)
	}
}

func TestNumFrames(t *testing.T) {
	p, _ := newPool(t, 7, 1)
	if p.NumFrames() != 7 {
		t.Errorf("NumFrames = %d", p.NumFrames())
	}
}

// TestConcurrentFetchUnpin hammers the pool from several goroutines with
// overlapping page sets, checking data integrity: each page holds its own
// id, written once at creation.
func TestConcurrentFetchUnpin(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	const pages = 64
	ids := make([]policy.PageID, pages)
	for i := range ids {
		ids[i] = storage.MustAllocate(d)
		buf := make([]byte, storage.PageSize)
		binary.LittleEndian.PutUint64(buf, uint64(ids[i]))
		if err := d.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	p := New(d, 16, core.NewSyncReplacer(2, core.Options{}))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRNG(seed)
			for i := 0; i < 5000; i++ {
				id := ids[r.Intn(pages)]
				pg, err := p.Fetch(id)
				if err != nil {
					// All frames transiently pinned is a legal outcome under
					// contention; anything else is a bug.
					if errors.Is(err, ErrNoFreeFrame) {
						continue
					}
					errs <- err
					return
				}
				if got := policy.PageID(binary.LittleEndian.Uint64(pg.Data())); got != id {
					errs <- fmt.Errorf("page %d holds data of page %d", id, got)
					pg.Unpin(false)
					return
				}
				pg.Unpin(false)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Errorf("stress run produced no mix of hits and misses: %+v", s)
	}
}
