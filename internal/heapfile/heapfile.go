// Package heapfile implements record storage on slotted pages over the
// buffer pool: the "data pages" of the paper's Example 1.1. Records are
// addressed by RID (page, slot), inserted into the first page with room,
// and read back through the pool so every record access is a page
// reference the replacement policy sees.
//
// Page layout (little-endian):
//
//	bytes 0-1   numSlots
//	bytes 2-3   freeEnd: low end of the record data region (grows down)
//	bytes 4...  slot directory: {recOffset uint16, recLen uint16} per slot
//	...freeEnd  free space
//	freeEnd...  record data (allocated from the page end downward)
//
// A slot with recOffset 0 is empty (no record can start inside the
// header); a deleted slot is tombstoned with the high offset bit while
// keeping its (offset, length), so later inserts reclaim both the slot
// directory entry and the dead data region when the new record fits.
package heapfile

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/bufferpool"
	"repro/internal/policy"
	"repro/internal/storage"
)

const (
	headerSize = 4
	slotSize   = 4
	// MaxRecord is the largest storable record: a page minus header and one
	// slot entry.
	MaxRecord = storage.PageSize - headerSize - slotSize
	// tombstone marks a deleted slot in its offset field. Page offsets are
	// below 4096, so the high bit is free; the slot keeps its (offset,
	// length) so a later insert can reuse the dead region.
	tombstone = 0x8000
	// latchStripes is the number of page-latch partitions (power of two).
	// Concurrent record operations on different pages never contend; two
	// operations on the same page serialise reader/writer style.
	latchStripes = 64
)

// slotDead reports whether a slot offset denotes a deleted or never-used
// slot.
func slotDead(off uint16) bool { return off == 0 || off&tombstone != 0 }

// Errors reported by heap-file operations.
var (
	ErrRecordTooLarge = errors.New("heapfile: record exceeds page capacity")
	ErrInvalidRID     = errors.New("heapfile: no record at RID")
	ErrUpdateTooLarge = errors.New("heapfile: updated record does not fit in place")
)

// RID addresses a record: the page holding it and its slot index.
type RID struct {
	Page policy.PageID
	Slot uint16
}

// String renders the RID for diagnostics.
func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// File is a heap file of variable-length records.
//
// Concurrency: Get, Update, and Scan are safe to call concurrently (with
// each other and themselves) — record bytes are accessed under a striped
// page latch, taken after the pool pin so it is never held across disk
// I/O. Insert and Delete mutate the page directory and must be serialised
// externally (the db layer loads single-threaded before serving).
type File struct {
	pool *bufferpool.Pool
	// pages is the in-memory page directory. A production system would
	// persist it as a linked list of directory pages; the replacement
	// study only needs data-page references to flow through the pool.
	pages []policy.PageID
	// reuse lists pages with freed slots, best-effort: Insert tries these
	// before allocating a fresh page, so deletions reclaim space across
	// the whole file rather than only on the newest page.
	reuse []policy.PageID
	// latches guard record bytes within a page: readers (Get, Scan) share,
	// writers (Insert, Update, Delete) exclude. Keyed by page-id hash.
	latches [latchStripes]sync.RWMutex
}

// latchFor returns the latch stripe guarding page id's bytes.
func (f *File) latchFor(id policy.PageID) *sync.RWMutex {
	return &f.latches[uint64(id)&(latchStripes-1)]
}

// New returns an empty heap file over the pool.
func New(pool *bufferpool.Pool) *File {
	if pool == nil {
		panic("heapfile: nil pool")
	}
	return &File{pool: pool}
}

// Attach re-opens a heap file whose data pages already exist in the pool's
// storage backend (a durable store after crash recovery), with the given
// page directory in allocation order. Reuse hints are rebuilt by scanning
// each page's slot directory for tombstones, so inserts after reattach
// reclaim freed space exactly as before the restart.
func Attach(pool *bufferpool.Pool, pages []policy.PageID) (*File, error) {
	if pool == nil {
		panic("heapfile: nil pool")
	}
	f := &File{pool: pool, pages: append([]policy.PageID(nil), pages...)}
	for _, id := range f.pages {
		pg, err := pool.Fetch(id)
		if err != nil {
			return nil, fmt.Errorf("heapfile attach: %w", err)
		}
		data := pg.Data()
		numSlots, freeEnd := pageHeader(data)
		if int(freeEnd) > storage.PageSize || headerSize+int(numSlots)*slotSize > int(freeEnd) {
			pg.Unpin(false)
			return nil, fmt.Errorf("heapfile attach: page %d has corrupt header (%d slots, freeEnd %d)",
				id, numSlots, freeEnd)
		}
		for s := uint16(0); s < numSlots; s++ {
			if off, _ := slotAt(data, s); off&tombstone != 0 {
				f.reuse = append(f.reuse, id)
				break
			}
		}
		pg.Unpin(false)
	}
	return f, nil
}

// Pages returns the ids of the file's data pages, in allocation order.
// Experiments use this to classify references by page class.
func (f *File) Pages() []policy.PageID {
	out := make([]policy.PageID, len(f.pages))
	copy(out, f.pages)
	return out
}

// pageHeader reads the header fields from page data.
func pageHeader(data []byte) (numSlots, freeEnd uint16) {
	return binary.LittleEndian.Uint16(data[0:2]), binary.LittleEndian.Uint16(data[2:4])
}

func setPageHeader(data []byte, numSlots, freeEnd uint16) {
	binary.LittleEndian.PutUint16(data[0:2], numSlots)
	binary.LittleEndian.PutUint16(data[2:4], freeEnd)
}

func slotAt(data []byte, i uint16) (recOffset, recLen uint16) {
	base := headerSize + int(i)*slotSize
	return binary.LittleEndian.Uint16(data[base : base+2]),
		binary.LittleEndian.Uint16(data[base+2 : base+4])
}

func setSlot(data []byte, i uint16, recOffset, recLen uint16) {
	base := headerSize + int(i)*slotSize
	binary.LittleEndian.PutUint16(data[base:base+2], recOffset)
	binary.LittleEndian.PutUint16(data[base+2:base+4], recLen)
}

// initPage prepares a fresh page's header.
func initPage(data []byte) {
	setPageHeader(data, 0, storage.PageSize)
}

// insertIntoPage tries to place rec on the page; ok is false if it does
// not fit. Placement preference: a tombstoned slot whose dead region fits
// the record (reclaiming its space), then fresh space at the end of the
// free region, reusing a dead slot directory entry when one exists.
func insertIntoPage(data []byte, rec []byte) (slot uint16, ok bool) {
	numSlots, freeEnd := pageHeader(data)
	need := len(rec)
	// Reclaim a dead region big enough for the record. Any unused remainder
	// of the region leaks until the slot turns over again — the standard
	// slotted-page trade against compaction cost.
	for i := uint16(0); i < numSlots; i++ {
		off, length := slotAt(data, i)
		if off&tombstone != 0 && int(length) >= need {
			base := off &^ tombstone
			copy(data[base:int(base)+need], rec)
			setSlot(data, i, base, uint16(need))
			return i, true
		}
	}
	free := int(freeEnd) - (headerSize + int(numSlots)*slotSize)
	// Fresh space, reusing a dead directory entry if possible.
	for i := uint16(0); i < numSlots; i++ {
		if off, _ := slotAt(data, i); slotDead(off) {
			if free < need {
				return 0, false
			}
			newEnd := freeEnd - uint16(need)
			copy(data[newEnd:freeEnd], rec)
			setSlot(data, i, newEnd, uint16(need))
			setPageHeader(data, numSlots, newEnd)
			return i, true
		}
	}
	if free < need+slotSize {
		return 0, false
	}
	newEnd := freeEnd - uint16(need)
	copy(data[newEnd:freeEnd], rec)
	setSlot(data, numSlots, newEnd, uint16(need))
	setPageHeader(data, numSlots+1, newEnd)
	return numSlots, true
}

// Insert stores rec and returns its RID.
func (f *File) Insert(rec []byte) (RID, error) {
	if len(rec) == 0 {
		return RID{}, errors.New("heapfile: empty record")
	}
	if len(rec) > MaxRecord {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	// Pages with freed slots first, so deletions reclaim space file-wide.
	for len(f.reuse) > 0 {
		id := f.reuse[len(f.reuse)-1]
		pg, err := f.pool.Fetch(id)
		if err != nil {
			return RID{}, fmt.Errorf("heapfile insert: %w", err)
		}
		lk := f.latchFor(id)
		lk.Lock()
		slot, ok := insertIntoPage(pg.Data(), rec)
		lk.Unlock()
		if ok {
			pg.Unpin(true)
			return RID{Page: id, Slot: slot}, nil
		}
		pg.Unpin(false)
		// The record did not fit; retire the hint and try the next one.
		f.reuse = f.reuse[:len(f.reuse)-1]
	}
	// Then the most recently allocated page: inserts are typically
	// appends, and this keeps the common case to one page reference.
	if n := len(f.pages); n > 0 {
		id := f.pages[n-1]
		pg, err := f.pool.Fetch(id)
		if err != nil {
			return RID{}, fmt.Errorf("heapfile insert: %w", err)
		}
		lk := f.latchFor(id)
		lk.Lock()
		slot, ok := insertIntoPage(pg.Data(), rec)
		lk.Unlock()
		if ok {
			pg.Unpin(true)
			return RID{Page: id, Slot: slot}, nil
		}
		pg.Unpin(false)
	}
	pg, err := f.pool.NewPage()
	if err != nil {
		return RID{}, fmt.Errorf("heapfile insert: %w", err)
	}
	id := pg.ID()
	lk := f.latchFor(id)
	lk.Lock()
	initPage(pg.Data())
	slot, ok := insertIntoPage(pg.Data(), rec)
	lk.Unlock()
	if !ok {
		pg.Unpin(false)
		return RID{}, fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(rec))
	}
	pg.Unpin(true)
	f.pages = append(f.pages, id)
	return RID{Page: id, Slot: slot}, nil
}

// Get returns a copy of the record at rid.
func (f *File) Get(rid RID) ([]byte, error) {
	return f.GetCtx(context.Background(), rid)
}

// GetCtx is Get charged against ctx: the page fetch (including a coalesced
// wait behind another request's in-flight read, and any transient-fault
// retry backoff) observes the deadline.
func (f *File) GetCtx(ctx context.Context, rid RID) ([]byte, error) {
	pg, err := f.pool.FetchCtx(ctx, rid.Page)
	if err != nil {
		return nil, fmt.Errorf("heapfile get %v: %w", rid, err)
	}
	defer pg.Unpin(false)
	lk := f.latchFor(rid.Page)
	lk.RLock()
	defer lk.RUnlock()
	data := pg.Data()
	numSlots, _ := pageHeader(data)
	if rid.Slot >= numSlots {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRID, rid)
	}
	off, length := slotAt(data, rid.Slot)
	if slotDead(off) {
		return nil, fmt.Errorf("%w: %v (deleted)", ErrInvalidRID, rid)
	}
	out := make([]byte, length)
	copy(out, data[off:off+length])
	return out, nil
}

// Update replaces the record at rid in place. The new record must not be
// larger than the old one (ErrUpdateTooLarge otherwise); shrinking updates
// keep the slot's original allocation.
func (f *File) Update(rid RID, rec []byte) error {
	return f.UpdateCtx(context.Background(), rid, rec)
}

// UpdateCtx is Update charged against ctx (see GetCtx). The in-place write
// happens under the page's exclusive latch, so a concurrent GetCtx of the
// same page sees either the old or the new bytes, never a torn record.
func (f *File) UpdateCtx(ctx context.Context, rid RID, rec []byte) error {
	pg, err := f.update(ctx, rid, rec)
	if err != nil {
		return err
	}
	pg.Unpin(true)
	return nil
}

// UpdateDurableCtx is UpdateCtx for an acknowledged write: the page stays
// pinned from the in-place update until its image has been written back,
// which on a durable backend means it has reached the write-ahead log.
// Unpinning in between would let a concurrent fetch evict the page and
// leave the flush nothing to write. The page's shared latch is held across
// the write so a concurrent in-place Update cannot tear the flushed image.
func (f *File) UpdateDurableCtx(ctx context.Context, rid RID, rec []byte) error {
	pg, err := f.update(ctx, rid, rec)
	if err != nil {
		return err
	}
	defer pg.Unpin(false)
	lk := f.latchFor(rid.Page)
	lk.RLock()
	defer lk.RUnlock()
	if err := pg.FlushCtx(ctx); err != nil {
		return fmt.Errorf("heapfile update %v: %w", rid, err)
	}
	return nil
}

// update overwrites the record at rid in place and returns its page still
// pinned; on error the page is already unpinned.
func (f *File) update(ctx context.Context, rid RID, rec []byte) (*bufferpool.Page, error) {
	pg, err := f.pool.FetchCtx(ctx, rid.Page)
	if err != nil {
		return nil, fmt.Errorf("heapfile update %v: %w", rid, err)
	}
	lk := f.latchFor(rid.Page)
	lk.Lock()
	data := pg.Data()
	numSlots, _ := pageHeader(data)
	if rid.Slot >= numSlots {
		lk.Unlock()
		pg.Unpin(false)
		return nil, fmt.Errorf("%w: %v", ErrInvalidRID, rid)
	}
	off, length := slotAt(data, rid.Slot)
	if slotDead(off) {
		lk.Unlock()
		pg.Unpin(false)
		return nil, fmt.Errorf("%w: %v (deleted)", ErrInvalidRID, rid)
	}
	if len(rec) > int(length) {
		lk.Unlock()
		pg.Unpin(false)
		return nil, fmt.Errorf("%w: %d > %d bytes", ErrUpdateTooLarge, len(rec), length)
	}
	copy(data[off:off+uint16(len(rec))], rec)
	setSlot(data, rid.Slot, off, uint16(len(rec)))
	lk.Unlock()
	return pg, nil
}

// Delete removes the record at rid. Its space is reclaimed only when the
// slot is reused (no compaction), the standard slotted-page trade-off.
func (f *File) Delete(rid RID) error {
	pg, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return fmt.Errorf("heapfile delete %v: %w", rid, err)
	}
	lk := f.latchFor(rid.Page)
	lk.Lock()
	data := pg.Data()
	numSlots, _ := pageHeader(data)
	if rid.Slot >= numSlots {
		lk.Unlock()
		pg.Unpin(false)
		return fmt.Errorf("%w: %v", ErrInvalidRID, rid)
	}
	off, length := slotAt(data, rid.Slot)
	if slotDead(off) {
		lk.Unlock()
		pg.Unpin(false)
		return fmt.Errorf("%w: %v (already deleted)", ErrInvalidRID, rid)
	}
	// Tombstone the slot, keeping its region so a later insert can reclaim
	// the space.
	setSlot(data, rid.Slot, off|tombstone, length)
	lk.Unlock()
	pg.Unpin(true)
	// Remember the page as a reuse candidate (dedup against the tail).
	if n := len(f.reuse); n == 0 || f.reuse[n-1] != rid.Page {
		f.reuse = append(f.reuse, rid.Page)
	}
	return nil
}

// Scan visits every live record in page order (a sequential scan, the
// access pattern of Example 1.2) until fn returns false. The record slice
// passed to fn is only valid during the call.
func (f *File) Scan(fn func(rid RID, rec []byte) bool) error {
	return f.ScanCtx(context.Background(), fn)
}

// ScanCtx is Scan charged against ctx: every page fetch observes the
// deadline, and the sweep also checks the context between pages so a
// cancelled scan stops promptly even when every page hits. fn runs under
// the page's shared latch — keep it short, and do not call back into the
// file from inside it.
func (f *File) ScanCtx(ctx context.Context, fn func(rid RID, rec []byte) bool) error {
	for _, id := range f.pages {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("heapfile scan: %w", err)
		}
		pg, err := f.pool.FetchCtx(ctx, id)
		if err != nil {
			return fmt.Errorf("heapfile scan: %w", err)
		}
		lk := f.latchFor(id)
		lk.RLock()
		data := pg.Data()
		numSlots, _ := pageHeader(data)
		for s := uint16(0); s < numSlots; s++ {
			off, length := slotAt(data, s)
			if slotDead(off) {
				continue
			}
			if !fn(RID{Page: id, Slot: s}, data[off:off+length]) {
				lk.RUnlock()
				pg.Unpin(false)
				return nil
			}
		}
		lk.RUnlock()
		pg.Unpin(false)
	}
	return nil
}
