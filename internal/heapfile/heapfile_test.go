package heapfile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

func newFile(t *testing.T, frames int) *File {
	t.Helper()
	d := sim.New(sim.ServiceModel{})
	pool := bufferpool.New(d, frames, core.NewSyncReplacer(2, core.Options{}))
	return New(pool)
}

func TestInsertGetRoundTrip(t *testing.T) {
	f := newFile(t, 8)
	recs := [][]byte{
		[]byte("alpha"),
		[]byte("beta"),
		bytes.Repeat([]byte("x"), 1000),
		{0},
	}
	var rids []RID
	for _, r := range recs {
		rid, err := f.Insert(r)
		if err != nil {
			t.Fatalf("Insert(%d bytes): %v", len(r), err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("record %d mismatch: %q vs %q", i, got, recs[i])
		}
	}
}

func TestInsertValidation(t *testing.T) {
	f := newFile(t, 4)
	if _, err := f.Insert(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := f.Insert(make([]byte, MaxRecord+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("oversized record: %v", err)
	}
	if _, err := f.Insert(make([]byte, MaxRecord)); err != nil {
		t.Errorf("max-size record rejected: %v", err)
	}
}

func TestPageOverflowAllocatesNewPage(t *testing.T) {
	f := newFile(t, 8)
	// Each record fills most of a page, forcing one page per record.
	big := make([]byte, 3000)
	r1, _ := f.Insert(big)
	r2, _ := f.Insert(big)
	if r1.Page == r2.Page {
		t.Error("two 3000-byte records on one 4096-byte page")
	}
	if len(f.Pages()) != 2 {
		t.Errorf("Pages = %d, want 2", len(f.Pages()))
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	f := newFile(t, 8)
	rid, _ := f.Insert([]byte("victim"))
	filler, _ := f.Insert([]byte("filler"))
	if err := f.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(rid); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("Get after delete: %v", err)
	}
	if err := f.Delete(rid); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("double delete: %v", err)
	}
	// The slot must be reused by the next insert on that page.
	rid2, _ := f.Insert([]byte("reuse!"))
	if rid2.Page != rid.Page || rid2.Slot != rid.Slot {
		t.Errorf("slot not reused: %v vs %v", rid2, rid)
	}
	got, err := f.Get(rid2)
	if err != nil || string(got) != "reuse!" {
		t.Errorf("reused slot Get = %q, %v", got, err)
	}
	// The untouched record is intact.
	if got, _ := f.Get(filler); string(got) != "filler" {
		t.Errorf("unrelated record damaged: %q", got)
	}
}

func TestUpdateInPlace(t *testing.T) {
	f := newFile(t, 8)
	rid, _ := f.Insert([]byte("original"))
	if err := f.Update(rid, []byte("patched!")); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Get(rid); string(got) != "patched!" {
		t.Errorf("after update: %q", got)
	}
	// Shrinking works.
	if err := f.Update(rid, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if got, _ := f.Get(rid); string(got) != "tiny" {
		t.Errorf("after shrink: %q", got)
	}
	// Growing beyond the slot fails.
	if err := f.Update(rid, bytes.Repeat([]byte("g"), 100)); !errors.Is(err, ErrUpdateTooLarge) {
		t.Errorf("grow update: %v", err)
	}
	// Bad RIDs fail.
	if err := f.Update(RID{Page: rid.Page, Slot: 99}, []byte("x")); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("bad slot update: %v", err)
	}
}

func TestGetInvalidRID(t *testing.T) {
	f := newFile(t, 4)
	rid, _ := f.Insert([]byte("x"))
	if _, err := f.Get(RID{Page: rid.Page, Slot: 7}); !errors.Is(err, ErrInvalidRID) {
		t.Errorf("bad slot: %v", err)
	}
	if _, err := f.Get(RID{Page: 999, Slot: 0}); err == nil {
		t.Error("bad page accepted")
	}
}

func TestScanVisitsAllLiveRecords(t *testing.T) {
	f := newFile(t, 8)
	want := map[string]bool{}
	var deleteMe RID
	for i := 0; i < 500; i++ {
		rec := fmt.Sprintf("record-%04d", i)
		rid, err := f.Insert([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if i == 250 {
			deleteMe = rid
		} else {
			want[rec] = true
		}
	}
	if err := f.Delete(deleteMe); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	err := f.Scan(func(rid RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan saw %d records, want %d", len(got), len(want))
	}
	for rec := range want {
		if !got[rec] {
			t.Errorf("scan missed %q", rec)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := newFile(t, 8)
	for i := 0; i < 10; i++ {
		if _, err := f.Insert([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	_ = f.Scan(func(RID, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("visited %d records after early stop, want 3", n)
	}
}

// TestSurvivesEviction: with a tiny pool, records must round-trip through
// disk write-back.
func TestSurvivesEviction(t *testing.T) {
	f := newFile(t, 2)
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, err := f.Insert([]byte(fmt.Sprintf("persist-%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	for i, rid := range rids {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("Get(%v): %v", rid, err)
		}
		if want := fmt.Sprintf("persist-%03d", i); string(got) != want {
			t.Errorf("record %d = %q, want %q", i, got, want)
		}
	}
}

// TestQuickInsertGet is a property test: any batch of random records
// round-trips.
func TestQuickInsertGet(t *testing.T) {
	f := newFile(t, 16)
	check := func(recs [][]byte) bool {
		var rids []RID
		var kept [][]byte
		for _, r := range recs {
			if len(r) == 0 || len(r) > 2000 {
				continue
			}
			rid, err := f.Insert(r)
			if err != nil {
				return false
			}
			rids = append(rids, rid)
			kept = append(kept, r)
		}
		for i, rid := range rids {
			got, err := f.Get(rid)
			if err != nil || !bytes.Equal(got, kept[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCrossPageSlotReuse: a slot freed on an old page is reused even after
// many newer pages were allocated.
func TestCrossPageSlotReuse(t *testing.T) {
	f := newFile(t, 8)
	big := make([]byte, 3000) // one record per page
	first, err := f.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Insert(big); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Delete(first); err != nil {
		t.Fatal(err)
	}
	rid, err := f.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page != first.Page {
		t.Errorf("insert landed on page %d, want reuse of page %d", rid.Page, first.Page)
	}
	if len(f.Pages()) != 6 {
		t.Errorf("page count %d, want 6 (no new allocation)", len(f.Pages()))
	}
}

// TestReuseHintRetiredWhenFull: a reuse hint whose page cannot fit the
// record is dropped rather than retried forever.
func TestReuseHintRetiredWhenFull(t *testing.T) {
	f := newFile(t, 8)
	small, _ := f.Insert([]byte("small"))
	if _, err := f.Insert(make([]byte, 3500)); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(small); err != nil {
		t.Fatal(err)
	}
	// The freed slot is 5 bytes; a 3000-byte record cannot reuse it, but
	// insertion must still succeed (on a fresh or the newest page).
	if _, err := f.Insert(make([]byte, 3000)); err != nil {
		t.Fatal(err)
	}
	// And a small record can still go into the freed slot's page later.
	rid, err := f.Insert([]byte("tiny!"))
	if err != nil {
		t.Fatal(err)
	}
	_ = rid
}

// evictOnRelease is a replacer that, once armed, answers the next
// SetEvictable(page, true) by having another goroutine fetch a different
// page into the one-frame pool, and waits until that fetch has evicted
// page. It reproduces deterministically the interleaving in which a
// concurrent fetch evicts a page the moment its pin count reaches zero.
type evictOnRelease struct {
	*core.SyncReplacer
	pool  *bufferpool.Pool
	page  policy.PageID
	other policy.PageID
	armed atomic.Bool
	done  chan error
}

func (r *evictOnRelease) SetEvictable(p policy.PageID, evictable bool) {
	r.SyncReplacer.SetEvictable(p, evictable)
	if !evictable || p != r.page || !r.armed.CompareAndSwap(true, false) {
		return
	}
	go func() {
		pg, err := r.pool.Fetch(r.other)
		if err == nil {
			pg.Unpin(false)
		}
		r.done <- err
	}()
	for r.pool.Resident(p) {
		runtime.Gosched()
	}
}

// TestUpdateDurableKeepsPagePinned pins UpdateDurableCtx's contract: the
// page stays pinned until its image is written back, so an eviction that
// strikes as soon as the page becomes evictable finds the write already
// done. Unpinning between the update and the flush fails the flush with
// ErrPageNotResident (the durable UPDATE race).
func TestUpdateDurableKeepsPagePinned(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	other := storage.MustAllocate(d)
	r := &evictOnRelease{SyncReplacer: core.NewSyncReplacer(2, core.Options{}), other: other, done: make(chan error, 1)}
	pool := bufferpool.New(d, 1, r)
	r.pool = pool
	f := New(pool)
	rid, err := f.Insert([]byte("before"))
	if err != nil {
		t.Fatal(err)
	}
	r.page = rid.Page

	r.armed.Store(true)
	if err := f.UpdateDurableCtx(context.Background(), rid, []byte("after!")); err != nil {
		t.Fatalf("UpdateDurableCtx: %v", err)
	}
	if r.armed.Load() {
		t.Fatal("the page never became evictable")
	}
	if err := <-r.done; err != nil {
		t.Fatalf("evicting fetch: %v", err)
	}
	buf := make([]byte, storage.PageSize)
	if err := d.Read(context.Background(), rid.Page, buf); err != nil {
		t.Fatal(err)
	}
	off, n := slotAt(buf, rid.Slot)
	if got := string(buf[off : off+n]); got != "after!" {
		t.Errorf("stored record = %q, want the acknowledged %q", got, "after!")
	}
}
