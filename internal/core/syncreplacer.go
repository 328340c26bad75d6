package core

import (
	"sync"

	"repro/internal/policy"
)

// SyncReplacer is the concurrent form of LRU-K the buffer pool runs: one
// Replacer serialised behind a mutex. The plain Replacer is single-threaded
// by design (the deterministic simulator needs bit-for-bit reproducible
// decisions); the wrapper adds only the lock, so decisions are identical
// to the plain Replacer's for any serialisable call history, and a
// single-threaded trace replayed through the concurrent pool yields
// exactly the Serial reference pool's hit/miss/eviction accounting. The
// victim order is global LRU-K across the whole pool.
type SyncReplacer struct {
	mu sync.Mutex
	r  *Replacer
}

// NewSyncReplacer returns a mutex-guarded LRU-K replacer with history depth
// k and the given §2.1 periods.
func NewSyncReplacer(k int, opts Options) *SyncReplacer {
	return &SyncReplacer{r: NewReplacer(k, opts)}
}

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
