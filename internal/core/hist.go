// Package core implements the LRU-K page replacement algorithm of
// O'Neil, O'Neil & Weikum (SIGMOD 1993) — the primary contribution of the
// paper this repository reproduces.
//
// Three public faces share one implementation of the paper's bookkeeping:
//
//   - LRUK: a fixed-capacity page cache implementing the policy.Cache
//     interface, used by the trace-driven simulator (Section 4).
//   - Replacer: a pin-aware victim selector for the buffer-pool manager in
//     internal/bufferpool, which runs it behind SyncReplacer's mutex.
//   - Cache: a sharded, concurrent, generic in-memory cache with LRU-K
//     eviction — the artifact a downstream user would adopt.
//
// The bookkeeping follows Figure 2.1 of the paper: per-page HIST blocks
// with the times of the K most recent uncorrelated references, a LAST
// timestamp for correlated-reference detection (§2.1.1), retained history
// for non-resident pages (§2.1.2), and a victim index ordered by Backward
// K-distance (§2.1.3). The paper suggests a search tree for the index;
// this one is a binary min-heap re-keyed lazily, at eviction time rather
// than on every reference. That is exact because a page's key only grows
// (see histTable), so a stale stored key is a lower bound on the true one.
package core

import "repro/internal/policy"

// hist is the history control block HIST(p) plus LAST(p) of Figure 2.1,
// together with the page's place in the victim heap.
type hist struct {
	// times holds the K most recent uncorrelated reference times:
	// times[0] is HIST(p,1) (most recent), times[K-1] is HIST(p,K).
	// A zero entry means "no such reference yet" (backward distance ∞),
	// matching the pseudo-code's initialisation HIST(p,i) := 0.
	times []policy.Tick
	// last is LAST(p): the most recent reference of any kind, correlated
	// or not.
	last policy.Tick
	// ord is the key the victim heap last ordered this block by. Keys only
	// grow, so ord is never above key(). ord.page is the block's page and
	// never changes.
	ord vkey
	// slot is the block's position in the victim heap, -1 when absent.
	slot int
	// resident reports whether the page currently occupies a buffer frame.
	resident bool
	// evictable reports whether the page may be chosen as a victim: always
	// for a resident LRUK or Cache page, pin count zero for the Replacer.
	evictable bool
}

// kth returns HIST(p,K), the time of the K-th most recent uncorrelated
// reference; zero encodes an infinite Backward K-distance.
func (h *hist) kth() policy.Tick { return h.times[len(h.times)-1] }

// page returns the page the block describes.
func (h *hist) page() policy.PageID { return h.ord.page }

// vkey is the victim-index key. Ascending order is eviction order: the
// smallest HIST(p,K) is the maximal Backward K-distance (Definition 2.2),
// zero (∞ distance) sorts first, and HIST(p,1) implements the subsidiary
// LRU rule among pages tied at infinite distance.
type vkey struct {
	kth   policy.Tick
	hist1 policy.Tick
	page  policy.PageID
}

func vkeyLess(a, b vkey) bool {
	if a.kth != b.kth {
		return a.kth < b.kth
	}
	if a.hist1 != b.hist1 {
		return a.hist1 < b.hist1
	}
	return a.page < b.page
}

// key returns the block's current victim-index key.
func (h *hist) key() vkey {
	return vkey{kth: h.kth(), hist1: h.times[0], page: h.ord.page}
}

// retired records a page that left residency at a given LAST time; the
// retention queue purges history blocks lazily once their age exceeds the
// Retained Information Period.
type retired struct {
	page policy.PageID
	last policy.Tick
}

// histTable is the shared engine: history blocks for resident and retained
// pages, the victim heap over the evictable subset, and the retention
// queue. LRUK, Replacer and the cache shards all embed one.
//
// The victim heap is re-keyed lazily. A page's key (HIST(p,K), HIST(p,1),
// page) never decreases while its block is resident: an uncorrelated
// reference sets the new HIST(p,K) to the old HIST(p,K-1) plus the closed
// burst's span, at least the old HIST(p,K), and HIST(p,1) to now; a
// correlated reference moves only LAST. So the key a block was pushed
// with stays a lower bound on its true key, and references and pin flips
// need not touch the heap at all. selectVictim repairs the top on demand:
// a top whose stored key is current is the exact minimum of every true key
// in the heap.
type histTable struct {
	k     int
	crp   policy.Tick // Correlated Reference Period (§2.1.1); 0 disables
	rip   policy.Tick // Retained Information Period (§2.1.2); 0 retains forever
	clock policy.Tick

	pages map[policy.PageID]*hist
	// heap is the victim index: a binary min-heap of blocks ordered by
	// their stored keys (hist.ord). Every evictable resident page is in it;
	// a page pinned since it was pushed stays until it surfaces at the top.
	heap []*hist
	// aside is selectVictim's scratch list of pages set aside inside their
	// Correlated Reference Period.
	aside []*hist
	// evictable counts the evictable resident pages.
	evictable int
	// retire is the lazily-validated retention queue, ordered by the LAST
	// value the page had when it left residency. retireHead indexes its
	// logical front; popped slack is compacted away (see retirePop) so a
	// retirement burst cannot pin its peak-sized backing array forever,
	// as popping with retire = retire[1:] used to.
	retire     []retired
	retireHead int
	// onPurge, when set, is called for each history block the retention
	// demon drops; the generic cache uses it to release key bindings.
	onPurge func(policy.PageID)

	// tracer, when set, receives collapse/purge decisions (evictions are
	// reported by the owning Replacer, which knows the K-distance). Called
	// under whatever lock serialises this table.
	tracer PolicyTracer
	// collapses and purges count §2.1.1 collapses and §2.1.2 purges; plain
	// uint64s because the table is externally serialised.
	collapses uint64
	purges    uint64
}

func newHistTable(k int, crp, rip policy.Tick) *histTable {
	return &histTable{
		k:     k,
		crp:   crp,
		rip:   rip,
		pages: make(map[policy.PageID]*hist),
	}
}

func (t *histTable) reset() {
	t.clock = 0
	t.pages = make(map[policy.PageID]*hist)
	t.heap, t.evictable = nil, 0
	t.retire, t.retireHead = nil, 0
	t.collapses, t.purges = 0, 0
}

// tick advances the logical clock by one reference and runs the retention
// purge. It returns the new time.
func (t *histTable) tick() policy.Tick {
	t.clock++
	t.purge()
	return t.clock
}

// advanceTo moves the clock forward to now (never backward, so a
// non-monotonic external clock cannot corrupt history ordering), runs the
// retention purge, and returns the effective time.
func (t *histTable) advanceTo(now policy.Tick) policy.Tick {
	if now > t.clock {
		t.clock = now
	}
	t.purge()
	return t.clock
}

// touchResident processes a reference at time now to a page already in
// buffer, per the top branch of Figure 2.1. The victim heap is left alone:
// the reference only grows the page's key (see histTable).
func (t *histTable) touchResident(h *hist, now policy.Tick) {
	if t.crp > 0 && now-h.last <= t.crp {
		// A correlated reference: only LAST moves (§2.1.1).
		h.last = now
		t.collapses++
		if t.tracer != nil {
			t.tracer.TraceCollapse(h.page(), now)
		}
		return
	}
	// A new, uncorrelated reference: close the correlated period by
	// crediting its span to the older history entries, collapsing the burst
	// to a zero-width interval, exactly as Figure 2.1 does.
	span := h.last - h.times[0]
	for i := t.k - 1; i >= 1; i-- {
		if h.times[i-1] != 0 {
			h.times[i] = h.times[i-1] + span
		}
	}
	h.times[0] = now
	h.last = now
}

// admit installs page p as resident at time now, creating or shifting its
// history control block per the bottom branch of Figure 2.1, and returns
// its block. evictable says whether the page may be chosen as a victim
// straight away (the Replacer defers that to SetEvictable).
func (t *histTable) admit(p policy.PageID, now policy.Tick, evictable bool) *hist {
	h, ok := t.pages[p]
	if !ok {
		// "allocate HIST(p); for i := 2 to K do HIST(p,i) := 0"
		h = &hist{times: make([]policy.Tick, t.k), ord: vkey{page: p}, slot: -1}
		t.pages[p] = h
	} else {
		// History survives from a previous residency (§2.1.2): shift it so
		// the new reference becomes HIST(p,1).
		for i := t.k - 1; i >= 1; i-- {
			h.times[i] = h.times[i-1]
		}
	}
	h.times[0] = now
	h.last = now
	h.resident = true
	t.setEvictable(h, evictable)
	return h
}

// evictResident removes h's page from residency and from the victim heap,
// retiring its history block into the retention queue.
func (t *histTable) evictResident(h *hist) {
	t.setEvictable(h, false)
	if h.slot >= 0 {
		t.unheap(h)
	}
	h.resident = false
	if t.rip > 0 {
		t.retire = append(t.retire, retired{page: h.page(), last: h.last})
	}
}

// setEvictable marks resident block h evictable or not. A page turning
// evictable is pushed under its current key unless it is still in the
// heap; one turning unevictable stays put, and selectVictim drops it when
// it surfaces.
func (t *histTable) setEvictable(h *hist, evictable bool) {
	if h.evictable == evictable {
		return
	}
	h.evictable = evictable
	if !evictable {
		t.evictable--
		return
	}
	t.evictable++
	if h.slot < 0 {
		t.push(h)
	}
}

// push enters h into the victim heap under its current key.
func (t *histTable) push(h *hist) {
	h.ord = h.key()
	h.slot = len(t.heap)
	t.heap = append(t.heap, h)
	t.siftUp(h.slot)
}

// unheap removes h from the victim heap.
func (t *histTable) unheap(h *hist) {
	i, last := h.slot, len(t.heap)-1
	if i != last {
		t.heapSwap(i, last)
	}
	t.heap[last] = nil
	t.heap = t.heap[:last]
	h.slot = -1
	if i < last {
		t.siftDown(i)
		t.siftUp(i)
	}
}

func (t *histTable) heapLess(i, j int) bool { return vkeyLess(t.heap[i].ord, t.heap[j].ord) }

func (t *histTable) heapSwap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.heap[i].slot = i
	t.heap[j].slot = j
}

func (t *histTable) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.heapLess(i, parent) {
			return
		}
		t.heapSwap(i, parent)
		i = parent
	}
}

func (t *histTable) siftDown(i int) {
	for n := len(t.heap); ; {
		least := i
		if l := 2*i + 1; l < n && t.heapLess(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && t.heapLess(r, least) {
			least = r
		}
		if least == i {
			return
		}
		t.heapSwap(i, least)
		i = least
	}
}

// retireLen returns the number of queued retirement entries.
func (t *histTable) retireLen() int { return len(t.retire) - t.retireHead }

// retireCompactMin is the popped-slack threshold below which retirePop
// does not bother compacting.
const retireCompactMin = 32

// retirePop removes and returns the front of the retention queue. The
// vacated slot is zeroed, and once popped slack dominates the backing
// array the live tail is copied down — to a fresh, smaller array when the
// queue is mostly slack — so the queue's memory stays proportional to its
// live length instead of its historical peak.
func (t *histTable) retirePop() retired {
	head := t.retire[t.retireHead]
	t.retire[t.retireHead] = retired{}
	t.retireHead++
	if t.retireHead >= retireCompactMin && t.retireHead >= len(t.retire)/2 {
		live := len(t.retire) - t.retireHead
		if cap(t.retire) >= 4*live+retireCompactMin {
			fresh := make([]retired, live)
			copy(fresh, t.retire[t.retireHead:])
			t.retire = fresh
		} else {
			n := copy(t.retire, t.retire[t.retireHead:])
			t.retire = t.retire[:n]
		}
		t.retireHead = 0
	}
	return head
}

// selectVictim returns the block of the evictable page with the maximal
// Backward K-distance whose correlated reference period has expired
// ("t - LAST(q) > Correlated Reference Period" in Figure 2.1). If every
// evictable page is still inside its correlated period, the overall
// maximum is returned anyway — the paper leaves this case open, and
// starving admission would deadlock a real buffer pool. It returns nil
// when nothing is evictable. The victim stays in the heap until the
// caller's evictResident.
//
// The loop repairs the heap top until it is current: a page no longer
// evictable is dropped (setEvictable pushes it back), a stale key is
// refreshed and sunk. Pages inside their correlated period are set aside
// in ascending key order and pushed back once the choice is made.
func (t *histTable) selectVictim(now policy.Tick) *hist {
	var victim *hist
	for len(t.heap) > 0 {
		h := t.heap[0]
		if !h.evictable {
			t.unheap(h)
			continue
		}
		if k := h.key(); k != h.ord {
			h.ord = k
			t.siftDown(0)
			continue
		}
		if t.crp == 0 || now-h.last > t.crp {
			victim = h
			break
		}
		t.unheap(h)
		t.aside = append(t.aside, h)
	}
	if victim == nil && len(t.aside) > 0 {
		victim = t.aside[0]
	}
	for i, h := range t.aside {
		t.push(h)
		t.aside[i] = nil
	}
	t.aside = t.aside[:0]
	return victim
}

// purge is the paper's "asynchronous demon process" (§2.1.3) run inline:
// it drops history control blocks of non-resident pages whose most recent
// reference is more than the Retained Information Period in the past.
// Queue entries are validated lazily, so the amortised cost is O(1) per
// reference.
func (t *histTable) purge() {
	if t.rip == 0 {
		return
	}
	for t.retireLen() > 0 {
		head := t.retire[t.retireHead]
		if t.clock-head.last <= t.rip {
			return
		}
		t.retirePop()
		h, ok := t.pages[head.page]
		if !ok || h.resident || h.last != head.last {
			// The page was readmitted (and possibly re-retired) since this
			// entry was queued; a fresher entry governs it.
			continue
		}
		t.dropHistory(head.page)
	}
}

// dropHistory deletes page's history control block and fires the purge
// hooks and counter.
func (t *histTable) dropHistory(page policy.PageID) {
	delete(t.pages, page)
	t.purges++
	if t.tracer != nil {
		t.tracer.TracePurge(page, t.clock)
	}
	if t.onPurge != nil {
		t.onPurge(page)
	}
}

// historyLen returns the number of history control blocks held, resident
// or retained. Exposed for tests of the retention demon.
func (t *histTable) historyLen() int { return len(t.pages) }

// dropOldestRetained purges the oldest retained (non-resident) history
// block regardless of the Retained Information Period, reporting whether
// one was dropped. The budgeted policy uses it to convert history memory
// back into buffer frames when the history share outgrows its budget.
func (t *histTable) dropOldestRetained() bool {
	for t.retireLen() > 0 {
		head := t.retirePop()
		h, ok := t.pages[head.page]
		if !ok || h.resident || h.last != head.last {
			continue // stale queue entry; a fresher one governs the page
		}
		t.dropHistory(head.page)
		return true
	}
	return false
}

// backwardKDistance returns b_t(p,K) per Definition 2.1, with ok=false
// encoding an infinite distance (no K-th reference on record).
func (t *histTable) backwardKDistance(p policy.PageID) (policy.Tick, bool) {
	h, found := t.pages[p]
	if !found || h.kth() == 0 {
		return 0, false
	}
	return t.clock - h.kth(), true
}
