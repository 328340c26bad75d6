package core

import (
	"fmt"

	"repro/internal/policy"
)

// Replacer is the buffer-pool-facing form of LRU-K: a victim selector over
// pages whose residency, pinning and eviction are controlled externally by
// a buffer-pool manager. Pinned pages (evictable=false) are never chosen
// as victims; the pool marks a page evictable once its pin count drops to
// zero.
//
// This is the shape a real database engine embeds (the paper's prototype
// inside the Amdahl Huron buffer manager); the trace simulator uses the
// simpler LRUK type instead.
//
// Replacer is not safe for concurrent use. The single-threaded trace
// simulator and the Serial reference pool call it directly; the concurrent
// buffer pool takes it behind SyncReplacer's mutex.
type Replacer struct {
	k     int
	table *histTable
	// evictions counts victim selections (see PolicyStats).
	evictions uint64
}

// NewReplacer returns an LRU-K replacer for a pool with the given history
// depth and §2.1 periods.
func NewReplacer(k int, opts Options) *Replacer {
	if k < 1 {
		panic(fmt.Sprintf("core: K must be at least 1, got %d", k))
	}
	return &Replacer{
		k:     k,
		table: newHistTable(k, opts.CorrelatedReferencePeriod, opts.RetainedInformationPeriod),
	}
}

// RecordAccess notes a reference to page p, which the pool has made (or is
// about to make) resident. It advances the logical clock by one reference.
func (r *Replacer) RecordAccess(p policy.PageID) {
	now := r.table.tick()
	if h, ok := r.table.pages[p]; ok && h.resident {
		r.table.touchResident(h, now)
		return
	}
	// New residency; pages enter pinned, so not evictable yet.
	r.table.admit(p, now, false)
}

// SetEvictable marks page p as evictable (pin count zero) or not. Calls
// for pages the replacer has never seen are ignored, matching the
// tolerance a pool needs during recovery paths.
func (r *Replacer) SetEvictable(p policy.PageID, evictable bool) {
	if h, ok := r.table.pages[p]; ok && h.resident {
		r.table.setEvictable(h, evictable)
	}
}

// Restore reinstates page p as resident after an eviction was abandoned
// (the buffer pool found the victim re-pinned, or its dirty write-back
// failed and the data exists only in memory). Unlike RecordAccess it does
// not advance the clock and leaves the HIST block exactly as it was before
// Evict removed it: the abandonment is not a page reference, and
// fabricating one would corrupt the page's Backward K-distance. The page
// becomes a victim candidate again only through a later SetEvictable.
//
// If the history block was purged between Evict and Restore (possible
// under a short Retained Information Period), a fresh block is allocated
// at the current clock, as for a first reference.
func (r *Replacer) Restore(p policy.PageID) {
	h, ok := r.table.pages[p]
	if !ok {
		r.table.admit(p, r.table.clock, false)
		return
	}
	if h.resident {
		return // re-admitted by a racing reference; nothing to reinstate
	}
	// The retirement entry Evict queued stays behind as a stale record; the
	// retention demon's lazy validation skips it while the page is resident.
	h.resident = true
}

// Evict selects, removes and returns the victim page: the evictable page
// with the maximal Backward K-distance, honouring the Correlated Reference
// Period eligibility rule. ok is false when nothing is evictable.
func (r *Replacer) Evict() (policy.PageID, bool) {
	h := r.table.selectVictim(r.table.clock)
	if h == nil {
		return policy.InvalidPage, false
	}
	victim := h.page()
	r.evictions++
	if tr := r.table.tracer; tr != nil {
		// Capture the Backward K-distance (Definition 2.1) that justified
		// the choice before the block leaves residency.
		kdist, finite := r.table.backwardKDistance(victim)
		tr.TraceEvict(victim, r.table.clock, kdist, !finite)
	}
	r.table.evictResident(h)
	return victim, true
}

// Remove drops page p from the replacer entirely (page deallocated rather
// than evicted); its history is retired as on eviction, since a reallocated
// page id may recur.
func (r *Replacer) Remove(p policy.PageID) {
	if h, ok := r.table.pages[p]; ok && h.resident {
		r.table.evictResident(h)
	}
}

// Size returns the number of evictable pages.
func (r *Replacer) Size() int { return r.table.evictable }

// HistorySize returns the number of retained history control blocks.
func (r *Replacer) HistorySize() int { return r.table.historyLen() }

// SetTracer installs (or, with nil, removes) a PolicyTracer receiving this
// replacer's eviction, collapse and purge decisions.
func (r *Replacer) SetTracer(tr PolicyTracer) { r.table.tracer = tr }

// PolicyStats returns the replacer's cumulative decision counts and current
// table sizes.
func (r *Replacer) PolicyStats() PolicyStats {
	return PolicyStats{
		Evictions:     r.evictions,
		Collapses:     r.table.collapses,
		Purges:        r.table.purges,
		HistoryBlocks: r.table.historyLen(),
		Evictable:     r.table.evictable,
	}
}
