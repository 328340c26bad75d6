package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/stats"
	"repro/internal/storage/file"
)

// openDurable assembles a database over a file-backed durable store rooted
// at dir. Frames are kept small so load and update traffic spills through
// eviction write-backs into the WAL, not just the final flush.
func openDurable(t *testing.T, dir string) *DB {
	t.Helper()
	s, err := file.Open(dir)
	if err != nil {
		t.Fatalf("open store %s: %v", dir, err)
	}
	d, err := Open(Config{Frames: 64, Backend: s})
	if err != nil {
		s.Close()
		t.Fatalf("open db over %s: %v", dir, err)
	}
	return d
}

func checkCustomer(t *testing.T, d *DB, id int64, fill byte) {
	t.Helper()
	rec, err := d.Lookup(id)
	if err != nil {
		t.Fatalf("lookup %d: %v", id, err)
	}
	if got := int64(binary.LittleEndian.Uint64(rec)); got != id {
		t.Errorf("customer %d: record carries id %d", id, got)
	}
	for i := 8; i < len(rec); i++ {
		if rec[i] != fill {
			t.Fatalf("customer %d: filler byte %d is %#x, want %#x", id, i, rec[i], fill)
		}
	}
}

// TestDurableReopen is the durable mode's lifecycle contract: load, flush,
// close, reopen — the dataset comes back attached, fully indexed, and
// updatable, across two generations of restart.
func TestDurableReopen(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	const customers = 200

	d := openDurable(t, dir)
	if d.Attached() {
		t.Error("fresh durable db claims to be attached to an existing dataset")
	}
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateCustomer(42, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir)
	if !d2.Attached() {
		t.Fatal("reopened db did not attach to the checkpointed dataset")
	}
	if ri, ok := d2.Recovery(); !ok || !ri.Reopened {
		t.Errorf("recovery info = %+v, %v; want a reopen report", ri, ok)
	}
	if got := d2.CustomerCount(); got != customers {
		t.Errorf("CustomerCount = %d after reopen, want %d", got, customers)
	}
	checkCustomer(t, d2, 42, 0xAA) // update flushed before close survives
	checkCustomer(t, d2, 7, 0)     // untouched record intact
	checkCustomer(t, d2, customers-1, 0)
	if _, err := d2.Lookup(customers); !errors.Is(err, ErrNotFound) {
		t.Errorf("lookup past the dataset: %v, want ErrNotFound", err)
	}
	if err := d2.UpdateCustomer(7, 0x55); err != nil {
		t.Fatalf("update after reopen: %v", err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	d3 := openDurable(t, dir)
	if got := d3.CustomerCount(); got != customers {
		t.Errorf("CustomerCount = %d after second reopen, want %d", got, customers)
	}
	checkCustomer(t, d3, 7, 0x55)
	checkCustomer(t, d3, 42, 0xAA)
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

// crashImage clones the store directory while the database is still
// running — the moral equivalent of the machine losing power at that
// instant — so a second database can recover from it.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAckedUpdateSurvivesCrash pins durable mode's acknowledgement
// contract: once UpdateCustomer returns, the update is in the fsynced WAL,
// so a crash image taken at any later instant — with the buffer pool's
// dirty pages and the next checkpoint both lost — still recovers it.
func TestAckedUpdateSurvivesCrash(t *testing.T) {
	leakcheck.Check(t)
	origin := t.TempDir()
	const customers = 100

	d := openDurable(t, origin)
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err) // catalog published: the dataset exists on disk
	}
	for _, upd := range []struct {
		id   int64
		fill byte
	}{{3, 0xEE}, {57, 0x11}, {3, 0xEF}} {
		if err := d.UpdateCustomer(upd.id, upd.fill); err != nil {
			t.Fatal(err)
		}
	}
	img := crashImage(t, origin) // power cut here
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, img)
	defer d2.Close()
	if !d2.Attached() {
		t.Fatal("crash image did not reattach")
	}
	if ri, ok := d2.Recovery(); !ok || ri.Replayed == 0 {
		t.Errorf("recovery info = %+v, %v; want replayed WAL records", ri, ok)
	}
	checkCustomer(t, d2, 3, 0xEF) // both acked updates, in order
	checkCustomer(t, d2, 57, 0x11)
	checkCustomer(t, d2, 4, 0) // neighbours untouched
	if got := d2.CustomerCount(); got != customers {
		t.Errorf("CustomerCount = %d after crash recovery, want %d", got, customers)
	}
}

// TestCrashBeforeFirstCheckpoint: a durable database that dies before its
// first FlushAll has never published a catalog, so the dataset does not
// exist yet — reopening must fail loudly rather than attach to garbage.
func TestCrashBeforeFirstCheckpoint(t *testing.T) {
	leakcheck.Check(t)
	origin := t.TempDir()

	d := openDurable(t, origin)
	if err := d.LoadCustomers(50); err != nil {
		t.Fatal(err)
	}
	img := crashImage(t, origin) // crash with no checkpoint ever taken
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := file.Open(img)
	if err != nil {
		t.Fatalf("store-level recovery itself must succeed: %v", err)
	}
	d2, err := Open(Config{Frames: 64, Backend: s})
	if err == nil {
		d2.Close()
		t.Fatal("db attached to a store with an unpublished catalog")
	}
	s.Close()
}

// TestConcurrentDurableUpdates is the regression test for durable UPDATE
// under concurrency: the record page must stay pinned from the in-place
// update until its image reaches the write-ahead log. Unpinned in between,
// it can be evicted by the other connection's fetch, and the update fails
// with "page not resident". Two writers share a two-frame pool, so
// whenever one of them needs a frame the other's just-updated page is a
// candidate victim. Every update must succeed, and every acknowledged
// value must come back from a crash image taken after the last
// acknowledgement.
func TestConcurrentDurableUpdates(t *testing.T) {
	leakcheck.Check(t)
	origin := t.TempDir()
	const (
		customers = 200
		writers   = 2
		perWriter = 200
	)
	d := openDurable(t, origin)
	if err := d.LoadCustomers(customers); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := file.Open(origin)
	if err != nil {
		t.Fatal(err)
	}
	// Each writer holds at most one pin at a time, so two frames never run
	// out, and every miss must evict a page the other writer may be using.
	d, err = Open(Config{Frames: 2, Backend: s})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}

	// Writer w owns the customers with id%writers == w, so the last value
	// it acknowledged for a customer is the value recovery must return.
	acked := make([]map[int64]byte, writers)
	errs := make(chan error, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = make(map[int64]byte)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(w) + 1)
			for i := 0; i < perWriter; i++ {
				id := int64(r.Intn(customers/writers)*writers + w)
				fill := byte(i%250 + 1)
				if err := d.UpdateCustomer(id, fill); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					continue
				}
				acked[w][id] = fill
				// Lookups between updates keep the pool missing, so one
				// writer's evictions overlap the other's updates.
				for j := 0; j < 4; j++ {
					if _, err := d.Lookup(int64(r.Intn(customers))); err != nil {
						errs <- fmt.Errorf("writer %d: %w", w, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	img := crashImage(t, origin) // power cut after the last acknowledgement
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, img)
	defer d2.Close()
	for _, m := range acked {
		for id, fill := range m {
			checkCustomer(t, d2, id, fill)
		}
	}
}
