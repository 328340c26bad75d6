package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/policy"
)

// This file makes the Replacer contract explicitly concurrent. The plain
// Replacer is single-threaded by design (the deterministic simulator needs
// bit-for-bit reproducible decisions); a concurrent buffer pool needs one
// of the two wrappers below:
//
//   - SyncReplacer serialises one Replacer behind a mutex. Decisions are
//     identical to the plain Replacer's for any serialisable call history,
//     so a single-threaded trace replayed through a concurrent pool yields
//     exactly the seed pool's hit/miss/eviction accounting.
//   - ShardedReplacer partitions pages across independently locked
//     sub-replacers, mirroring Cache's shard scheme: near-linear scaling,
//     per-shard (not global) LRU-K victim order.
//
// Both advertise their thread safety with ConcurrentSafe, the marker the
// buffer pool checks before deciding whether to add its own lock.

// SyncReplacer is a Replacer guarded by a single mutex: safe for concurrent
// use while preserving the global LRU-K victim order of the wrapped
// replacer.
type SyncReplacer struct {
	mu sync.Mutex
	r  *Replacer
	// clock is the arrival clock shared with a Batched wrapper, so buffered
	// references are stamped at arrival and applied at their own times. For
	// a serialisable call history it produces the same tick sequence as the
	// wrapped replacer's private clock.
	clock atomic.Int64
}

// NewSyncReplacer returns a mutex-guarded LRU-K replacer with history depth
// k and the given §2.1 periods.
func NewSyncReplacer(k int, opts Options) *SyncReplacer {
	s := &SyncReplacer{r: NewReplacer(k, opts)}
	s.r.clockSrc = &s.clock
	return s
}

// ConcurrentSafe marks SyncReplacer as safe for concurrent use.
func (s *SyncReplacer) ConcurrentSafe() {}

// RecordAccess notes a reference to a resident page.
func (s *SyncReplacer) RecordAccess(p policy.PageID) {
	s.mu.Lock()
	s.r.RecordAccess(p)
	s.mu.Unlock()
}

// SetEvictable marks whether p may be chosen as a victim.
func (s *SyncReplacer) SetEvictable(p policy.PageID, evictable bool) {
	s.mu.Lock()
	s.r.SetEvictable(p, evictable)
	s.mu.Unlock()
}

// Restore reinstates residency after an abandoned eviction without
// advancing the clock or touching the page's HIST block.
func (s *SyncReplacer) Restore(p policy.PageID) {
	s.mu.Lock()
	s.r.Restore(p)
	s.mu.Unlock()
}

// Evict selects and removes a victim.
func (s *SyncReplacer) Evict() (policy.PageID, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Evict()
}

// Remove drops p without treating it as an eviction decision.
func (s *SyncReplacer) Remove(p policy.PageID) {
	s.mu.Lock()
	s.r.Remove(p)
	s.mu.Unlock()
}

// Size returns the number of evictable pages.
func (s *SyncReplacer) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Size()
}

// HistorySize returns the number of retained history control blocks.
func (s *SyncReplacer) HistorySize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.HistorySize()
}

// SetTracer installs a PolicyTracer on the wrapped replacer; the tracer is
// invoked under this wrapper's mutex.
func (s *SyncReplacer) SetTracer(tr PolicyTracer) {
	s.mu.Lock()
	s.r.SetTracer(tr)
	s.mu.Unlock()
}

// PolicyStats returns the wrapped replacer's decision counts.
func (s *SyncReplacer) PolicyStats() PolicyStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.PolicyStats()
}

// RecordAdmission notes the reference that makes a page resident.
func (s *SyncReplacer) RecordAdmission(p policy.PageID) {
	s.mu.Lock()
	s.r.RecordAdmission(p)
	s.mu.Unlock()
}

// batchSlots returns 1: the wrapped replacer is a single table, and a
// single FIFO preserves the exact global event order, so a Batched
// SyncReplacer replays precisely the call history an unbatched one would
// see — the property the differential tests assert.
func (s *SyncReplacer) batchSlots() int { return 1 }

func (s *SyncReplacer) batchSlot(policy.PageID) int { return 0 }

func (s *SyncReplacer) arrivalClock() *atomic.Int64 { return &s.clock }

// applyBatch drains buffered events into the wrapped replacer under one
// mutex acquisition and returns the number of stale accesses dropped.
func (s *SyncReplacer) applyBatch(_ int, evs []batchEvent) (dropped int) {
	s.mu.Lock()
	for i := range evs {
		dropped += s.r.applyEvent(evs[i])
	}
	s.mu.Unlock()
	return dropped
}

// ShardedReplacer partitions pages by hash across independently locked
// LRU-K sub-replacers, the same latch-partitioning scheme Cache uses for
// its shards. Victim order is per-shard rather than global: Evict sweeps
// the shards round-robin and returns the first shard-local LRU-K victim,
// trading a bounded deviation from the global order for the removal of the
// single replacer lock from every reference.
type ShardedReplacer struct {
	shards []syncShard
	mask   uint64
	next   atomic.Uint64
	// clock is one arrival clock shared by every sub-replacer, so the
	// Backward K-distances different shards report through a PolicyTracer
	// are on a single timescale. (Before this, each shard advanced a
	// private clock at its own reference rate, making /trace distances
	// from different shards incomparable.)
	clock atomic.Int64
}

type syncShard struct {
	mu sync.Mutex
	r  *Replacer
	// Pad to a multiple of 64 bytes so adjacent shard locks do not share a
	// cache line under contention.
	_ [40]byte
}

// NewShardedReplacer returns a replacer with the given power-of-two shard
// count (0 selects 16), history depth k and §2.1 periods.
func NewShardedReplacer(shards, k int, opts Options) *ShardedReplacer {
	if shards == 0 {
		shards = 16
	}
	if shards < 1 || shards&(shards-1) != 0 {
		panic("core: replacer shard count must be a positive power of two")
	}
	r := &ShardedReplacer{
		shards: make([]syncShard, shards),
		mask:   uint64(shards - 1),
	}
	for i := range r.shards {
		r.shards[i].r = NewReplacer(k, opts)
		r.shards[i].r.clockSrc = &r.clock
	}
	return r
}

// ConcurrentSafe marks ShardedReplacer as safe for concurrent use.
func (r *ShardedReplacer) ConcurrentSafe() {}

func (r *ShardedReplacer) shard(p policy.PageID) *syncShard {
	return &r.shards[hashInt64(int64(p))&r.mask]
}

// RecordAccess notes a reference to a resident page.
func (r *ShardedReplacer) RecordAccess(p policy.PageID) {
	s := r.shard(p)
	s.mu.Lock()
	s.r.RecordAccess(p)
	s.mu.Unlock()
}

// SetEvictable marks whether p may be chosen as a victim.
func (r *ShardedReplacer) SetEvictable(p policy.PageID, evictable bool) {
	s := r.shard(p)
	s.mu.Lock()
	s.r.SetEvictable(p, evictable)
	s.mu.Unlock()
}

// Restore reinstates residency after an abandoned eviction without
// advancing the owning shard's clock or touching the page's HIST block.
func (r *ShardedReplacer) Restore(p policy.PageID) {
	s := r.shard(p)
	s.mu.Lock()
	s.r.Restore(p)
	s.mu.Unlock()
}

// Evict sweeps the shards starting from a rotating origin and returns the
// first shard-local victim; ok is false when no shard has an evictable
// page.
func (r *ShardedReplacer) Evict() (policy.PageID, bool) {
	start := r.next.Add(1)
	for i := uint64(0); i < uint64(len(r.shards)); i++ {
		s := &r.shards[(start+i)&r.mask]
		s.mu.Lock()
		v, ok := s.r.Evict()
		s.mu.Unlock()
		if ok {
			return v, true
		}
	}
	return policy.InvalidPage, false
}

// Remove drops p without treating it as an eviction decision.
func (r *ShardedReplacer) Remove(p policy.PageID) {
	s := r.shard(p)
	s.mu.Lock()
	s.r.Remove(p)
	s.mu.Unlock()
}

// Size returns the number of evictable pages across all shards.
func (r *ShardedReplacer) Size() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.r.Size()
		s.mu.Unlock()
	}
	return n
}

// HistorySize returns the number of retained history control blocks across
// all shards.
func (r *ShardedReplacer) HistorySize() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += s.r.HistorySize()
		s.mu.Unlock()
	}
	return n
}

// SetTracer installs a PolicyTracer on every shard; the implementation must
// tolerate concurrent calls from different shard locks.
func (r *ShardedReplacer) SetTracer(tr PolicyTracer) {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.r.SetTracer(tr)
		s.mu.Unlock()
	}
}

// PolicyStats sums decision counts and table sizes across all shards.
func (r *ShardedReplacer) PolicyStats() PolicyStats {
	var total PolicyStats
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		st := s.r.PolicyStats()
		s.mu.Unlock()
		total.add(st)
	}
	return total
}

// RecordAdmission notes the reference that makes a page resident.
func (r *ShardedReplacer) RecordAdmission(p policy.PageID) {
	s := r.shard(p)
	s.mu.Lock()
	s.r.RecordAdmission(p)
	s.mu.Unlock()
}

// batchSlots returns one buffer slot per shard: a page's events all land
// in its shard's slot, so each shard's table sees its exact event order
// and a batch drain takes exactly one shard lock.
func (r *ShardedReplacer) batchSlots() int { return len(r.shards) }

func (r *ShardedReplacer) batchSlot(p policy.PageID) int {
	return int(hashInt64(int64(p)) & r.mask)
}

func (r *ShardedReplacer) arrivalClock() *atomic.Int64 { return &r.clock }

// applyBatch drains buffered events into the slot's shard under one lock
// acquisition and returns the number of stale accesses dropped.
func (r *ShardedReplacer) applyBatch(slot int, evs []batchEvent) (dropped int) {
	s := &r.shards[slot]
	s.mu.Lock()
	for i := range evs {
		dropped += s.r.applyEvent(evs[i])
	}
	s.mu.Unlock()
	return dropped
}
