package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
)

// This file adds the access-buffer layer of ROADMAP item 3: on the hit
// path the buffer pool should not pay a replacer lock per reference, so
// Batched wraps a concurrent replacer with fixed-size per-slot ring
// buffers that accumulate policy events and drain them in batches under a
// single lock acquisition.
//
// Correctness rests on three invariants:
//
//  1. Arrival stamping. Reference events are stamped from the target's
//     shared arrival clock at enqueue time, inside the slot lock, and the
//     drain applies each event at its own stamp (histTable.advanceTo is
//     monotone). A reference is therefore accounted at the logical time
//     it happened, not the time the buffer drained, so HIST/LAST contents
//     are independent of when drains run.
//  2. Per-table FIFO. The target maps every page to a fixed slot such
//     that all pages of one underlying LRU-K table share one slot
//     (SyncReplacer: one slot; ShardedReplacer: one slot per shard). Each
//     table therefore replays exactly the event sequence an unbatched
//     caller would have issued, in order — which is why a single-threaded
//     trace through a Batched pool reconciles bit-exactly with the Serial
//     reference pool after a final drain.
//  3. Flush on eviction search. Evict (and the stats accessors) drains
//     every slot before consulting the target, so victim choice never
//     acts on a window staler than the buffer contents at the moment of
//     the call — in particular never staler than the Correlated Reference
//     Period semantics already discard (§2.1.1 collapses back-to-back
//     references regardless).
//
// The one deliberate semantic difference from the unbatched path: a
// buffered *hit* whose page left residency before the drain is dropped,
// not applied. Unbatched RecordAccess would interpret it as an admission
// and fabricate a HIST block for a page the pool no longer holds — the
// phantom-reference class the Restore audit (PR 2) eliminated. The pool
// reports genuine admissions through RecordAdmission, a distinct event
// kind that still creates or shifts the block on drain.

// Event kinds buffered by Batched. Reference events (evAccess, evAdmit)
// carry an arrival stamp; state events replay the corresponding Replacer
// call unchanged.
const (
	evAccess   = uint8(iota) // hit on a resident page; dropped if residency ended
	evAdmit                  // reference that makes the page resident
	evEvictOn                // SetEvictable(p, true)
	evEvictOff               // SetEvictable(p, false)
	evRestore                // Restore(p)
	evRemove                 // Remove(p)
	evPin                    // fused hit + SetEvictable(false): a pin raising the count from zero
)

// batchEvent is one buffered policy event. ts is meaningful only for
// reference events.
type batchEvent struct {
	page policy.PageID
	ts   policy.Tick
	kind uint8
}

// applyEvent replays one drained event against the replacer, returning 1
// when a stale access was dropped and 0 otherwise. Reference events are
// applied at their arrival stamp; advanceTo runs the retention purge
// exactly as tick would have at that time. Each event is the Replacer call
// it buffers, and none of them re-keys the victim heap (histTable re-keys
// lazily at eviction time), so a drain costs map and HIST updates only.
func (r *Replacer) applyEvent(e batchEvent) int {
	switch e.kind {
	case evAccess, evPin:
		now := r.table.advanceTo(e.ts)
		h, ok := r.table.pages[e.page]
		if !ok || !h.resident {
			// The page left residency between enqueue and drain; applying
			// the reference now would fabricate a phantom HIST block.
			return 1
		}
		if e.kind == evPin {
			r.table.setEvictable(h, false)
		}
		r.table.touchResident(h, now)
	case evAdmit:
		// A page readmitted by an interleaved reference is touched, exactly
		// as unbatched RecordAccess would.
		r.reference(e.page, r.table.advanceTo(e.ts))
	case evEvictOn:
		r.SetEvictable(e.page, true)
	case evEvictOff:
		r.SetEvictable(e.page, false)
	case evRestore:
		r.Restore(e.page)
	case evRemove:
		r.Remove(e.page)
	}
	return 0
}

// BatchTarget is a concurrent replacer that can absorb batches of
// buffered events under one lock acquisition. SyncReplacer and
// ShardedReplacer implement it; the unexported methods tie the slot
// geometry to the target's internal locking so that each underlying
// LRU-K table receives its events in exact FIFO order.
type BatchTarget interface {
	ConcurrentSafe()
	Evict() (policy.PageID, bool)
	Size() int
	HistorySize() int
	SetTracer(PolicyTracer)
	PolicyStats() PolicyStats

	batchSlots() int
	batchSlot(policy.PageID) int
	arrivalClock() *atomic.Int64
	applyBatch(slot int, evs []batchEvent) (dropped int)
}

// BatchConfig tunes a Batched replacer.
type BatchConfig struct {
	// Capacity is the per-slot event capacity; a slot drains into the
	// target when it fills. Zero selects DefaultBatchCapacity.
	Capacity int
}

// DefaultBatchCapacity is the per-slot capacity used when BatchConfig
// leaves Capacity zero. Larger slots amortise the target lock over more
// events; staleness at decision points is unaffected, since every eviction
// search and stats read flushes all slots first.
const DefaultBatchCapacity = 256

// BatchStats is a snapshot of a Batched replacer's drain counters.
type BatchStats struct {
	Drains  uint64 // slot drains triggered by a full buffer
	Flushes uint64 // whole-buffer flushes (eviction search, stats reads)
	Events  uint64 // events handed to the target
	Dropped uint64 // stale accesses discarded at drain (page left residency)
}

// batchSlot is one ring buffer plus its lock, padded so adjacent slot
// locks do not share a cache line under contention.
type batchSlot struct {
	mu  sync.Mutex
	buf []batchEvent
	n   int
	idx int
	_   [16]byte
}

// Batched wraps a BatchTarget with per-slot access buffers: RecordAccess,
// RecordAdmission, SetEvictable, Restore and Remove append an event under
// a cheap slot lock; the target's lock is taken only when a slot fills or
// an eviction search / stats read forces a flush. It satisfies the same
// pool-facing contract as the target and is safe for concurrent use.
type Batched struct {
	target  BatchTarget
	clock   *atomic.Int64
	slots   []batchSlot
	drains  atomic.Uint64
	flushes atomic.Uint64
	events  atomic.Uint64
	dropped atomic.Uint64
	// drainObs, when set, observes each drain (event count, wall nanos
	// spent applying). Install it with SetDrainObserver before the
	// replacer sees concurrent traffic.
	drainObs func(events int, nanos int64)
}

// NewBatched returns target wrapped with access buffers of the given
// per-slot capacity.
func NewBatched(target BatchTarget, cfg BatchConfig) *Batched {
	if target == nil {
		panic("core: nil batch target")
	}
	capacity := cfg.Capacity
	if capacity == 0 {
		capacity = DefaultBatchCapacity
	}
	if capacity < 1 {
		panic(fmt.Sprintf("core: batch capacity must be positive, got %d", capacity))
	}
	b := &Batched{
		target: target,
		clock:  target.arrivalClock(),
		slots:  make([]batchSlot, target.batchSlots()),
	}
	for i := range b.slots {
		b.slots[i].buf = make([]batchEvent, capacity)
		b.slots[i].idx = i
	}
	return b
}

// ConcurrentSafe marks Batched as safe for concurrent use.
func (b *Batched) ConcurrentSafe() {}

// SetDrainObserver installs fn to observe each drain's event count and
// apply latency. Call before the replacer sees concurrent traffic.
func (b *Batched) SetDrainObserver(fn func(events int, nanos int64)) { b.drainObs = fn }

// enqueue appends an event to the page's slot, stamping reference events
// from the shared arrival clock inside the slot lock (so stamps within a
// slot are monotone), and drains the slot if it is now full.
func (b *Batched) enqueue(p policy.PageID, kind uint8) {
	s := &b.slots[b.target.batchSlot(p)]
	s.mu.Lock()
	var ts policy.Tick
	if kind == evAccess || kind == evAdmit || kind == evPin {
		ts = policy.Tick(b.clock.Add(1))
	}
	s.buf[s.n] = batchEvent{page: p, ts: ts, kind: kind}
	s.n++
	if s.n == len(s.buf) {
		b.drainLocked(s)
		b.drains.Add(1)
	}
	s.mu.Unlock()
}

// drainLocked applies the slot's buffered events to the target. The
// caller holds the slot lock; the lock order is always slot → target,
// and the target never takes slot locks, so drains cannot deadlock.
func (b *Batched) drainLocked(s *batchSlot) {
	if s.n == 0 {
		return
	}
	var start time.Time
	if b.drainObs != nil {
		start = time.Now()
	}
	dropped := b.target.applyBatch(s.idx, s.buf[:s.n])
	b.events.Add(uint64(s.n))
	if dropped > 0 {
		b.dropped.Add(uint64(dropped))
	}
	if b.drainObs != nil {
		b.drainObs(s.n, time.Since(start).Nanoseconds())
	}
	s.n = 0
}

// FlushPending drains every slot, in slot order. After it returns, every
// event enqueued before the call is applied to the target (events raced
// in concurrently may or may not be).
func (b *Batched) FlushPending() {
	for i := range b.slots {
		s := &b.slots[i]
		s.mu.Lock()
		b.drainLocked(s)
		s.mu.Unlock()
	}
	b.flushes.Add(1)
}

// RecordAccess buffers a reference to a resident page, stamped at
// arrival. If the page leaves residency before the drain the reference
// is discarded (see the phantom-reference note above).
func (b *Batched) RecordAccess(p policy.PageID) { b.enqueue(p, evAccess) }

// RecordAdmission buffers the reference that makes page p resident.
func (b *Batched) RecordAdmission(p policy.PageID) { b.enqueue(p, evAdmit) }

// RecordPin buffers a fused reference-plus-unevictable event: the pool's
// hit path calls it when a fetch raises the pin count from zero, replacing
// the RecordAccess + SetEvictable(false) pair with a single buffered event
// (identical drained semantics, half the slot traffic).
func (b *Batched) RecordPin(p policy.PageID) { b.enqueue(p, evPin) }

// SetEvictable buffers an evictability change for page p.
func (b *Batched) SetEvictable(p policy.PageID, evictable bool) {
	if evictable {
		b.enqueue(p, evEvictOn)
	} else {
		b.enqueue(p, evEvictOff)
	}
}

// Restore buffers reinstatement of page p after an abandoned eviction.
func (b *Batched) Restore(p policy.PageID) { b.enqueue(p, evRestore) }

// Remove buffers removal of page p (deallocated rather than evicted).
func (b *Batched) Remove(p policy.PageID) { b.enqueue(p, evRemove) }

// Evict flushes every buffered event, then selects and removes a victim
// from the target — so victim choice never sees a stale window.
func (b *Batched) Evict() (policy.PageID, bool) {
	b.FlushPending()
	return b.target.Evict()
}

// Size flushes pending events and returns the number of evictable pages.
func (b *Batched) Size() int {
	b.FlushPending()
	return b.target.Size()
}

// HistorySize flushes pending events and returns the number of retained
// history control blocks.
func (b *Batched) HistorySize() int {
	b.FlushPending()
	return b.target.HistorySize()
}

// SetTracer installs a PolicyTracer on the target.
func (b *Batched) SetTracer(tr PolicyTracer) { b.target.SetTracer(tr) }

// PolicyStats flushes pending events and returns the target's decision
// counts.
func (b *Batched) PolicyStats() PolicyStats {
	b.FlushPending()
	return b.target.PolicyStats()
}

// BatchStats returns a snapshot of the drain counters.
func (b *Batched) BatchStats() BatchStats {
	return BatchStats{
		Drains:  b.drains.Load(),
		Flushes: b.flushes.Load(),
		Events:  b.events.Load(),
		Dropped: b.dropped.Load(),
	}
}
