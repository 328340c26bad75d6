package core

import (
	"fmt"
	"sync/atomic"

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
// Replacer is not safe for concurrent use; the buffer pool serialises
// access under its own latch.
type Replacer struct {
	k     int
	table *histTable
	// evictions counts victim selections (see PolicyStats).
	evictions uint64
	// clockSrc, when set, replaces the table's private tick with a shared
	// atomic arrival clock. ShardedReplacer installs one clock across all
	// sub-replacers so Backward K-distances traced from different shards
	// are on one timescale, and the Batched wrapper stamps buffered events
	// from it so a drained reference is applied at its arrival time rather
	// than its drain time.
	clockSrc *atomic.Int64
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
func (r *Replacer) RecordAccess(p policy.PageID) { r.reference(p, r.tick()) }

// reference applies a reference to page p at time now.
func (r *Replacer) reference(p policy.PageID, now policy.Tick) {
	if h, ok := r.table.pages[p]; ok && h.resident {
		r.table.touchResident(h, now)
		return
	}
	// New residency; pages enter pinned, so not evictable yet.
	r.table.admit(p, now, false)
}

// RecordAdmission notes the reference that makes page p resident after a
// miss or a fresh allocation. For the unbatched Replacer an admission is
// just a reference — it is identical to RecordAccess — but the Batched
// wrapper records the two distinctly: a buffered admission must create the
// HIST block even though the drain runs later, while a buffered hit whose
// page has since left residency is discarded rather than fabricating a
// phantom reference (see accessbuffer.go).
func (r *Replacer) RecordAdmission(p policy.PageID) { r.RecordAccess(p) }

// tick advances the logical clock by one reference, drawing from the
// shared arrival clock when one is installed and from the table's private
// clock otherwise. With a shared clock the table is advanced (never moved
// backward) to the drawn time, so the retention purge still runs once per
// reference.
func (r *Replacer) tick() policy.Tick {
	if r.clockSrc != nil {
		return r.table.advanceTo(policy.Tick(r.clockSrc.Add(1)))
	}
	return r.table.tick()
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
	if r.clockSrc != nil {
		// A shard's table only advances when it sees a reference, so at
		// eviction time it may lag the shared arrival clock. The decision —
		// CRP eligibility and the traced Backward K-distance — is defined at
		// the current global time (Definition 2.1 is over the full reference
		// string), so catch the table up first. Skipped when already current:
		// advanceTo also runs the retention purge, and the single-table case
		// must stay bit-exact with the unshared-clock Replacer, which purges
		// only on references.
		if g := policy.Tick(r.clockSrc.Load()); g > r.table.clock {
			r.table.advanceTo(g)
		}
	}
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
