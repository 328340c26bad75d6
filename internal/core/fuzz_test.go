package core

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/stats"
)

// FuzzLRUKMatchesFigure21 feeds arbitrary reference strings plus
// configuration bytes to both the production LRU-K and the literal
// Figure 2.1 transcription and requires identical hit patterns.
func FuzzLRUKMatchesFigure21(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3}, uint8(2), uint8(3), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 1, 1}, uint8(1), uint8(1), uint8(2))
	f.Add([]byte{9, 8, 7, 9, 8, 7, 9}, uint8(3), uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, capRaw, crpRaw uint8) {
		k := int(kRaw%4) + 1
		capacity := int(capRaw%8) + 1
		crp := policy.Tick(crpRaw % 6)
		c := NewLRUKWithOptions(capacity, k, Options{CorrelatedReferencePeriod: crp})
		b := newBrute(capacity, k, crp)
		for i, x := range raw {
			p := policy.PageID(x % 32)
			if got, want := c.Reference(p), b.reference(p); got != want {
				t.Fatalf("ref %d (page %d): LRUK hit=%v, Figure 2.1 hit=%v (k=%d cap=%d crp=%d)",
					i, p, got, want, k, capacity, crp)
			}
			if c.Len() > capacity {
				t.Fatalf("capacity exceeded: %d > %d", c.Len(), capacity)
			}
		}
	})
}

// FuzzReplacerMatchesScan drives the pool-facing Replacer with arbitrary
// RecordAccess, SetEvictable, Evict, Remove and Restore
// calls and checks every victim against a brute-force scan: the least
// (HIST(p,K), HIST(p,1), page) over evictable resident pages, restricted
// to pages past their Correlated Reference Period whenever one is. After
// every call it audits the lazily re-keyed victim heap (checkVictimHeap).
func FuzzReplacerMatchesScan(f *testing.F) {
	r := stats.NewRNG(7)
	for k := uint8(1); k <= 3; k++ {
		for _, crp := range []uint8{0, 2, 6} {
			ops := make([]byte, 600)
			for i := range ops {
				ops[i] = byte(r.Intn(256))
			}
			f.Add(ops, k, crp, uint8(0))
			f.Add(ops, k, crp, uint8(3))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte, kRaw, crpRaw, ripRaw uint8) {
		k := int(kRaw%3) + 1
		crp := policy.Tick(crpRaw % 8)
		rip := policy.Tick(ripRaw%4) * 8 // 0 retains forever
		r := NewReplacer(k, Options{CorrelatedReferencePeriod: crp, RetainedInformationPeriod: rip})
		for i := 0; i+1 < len(ops); i += 2 {
			p := policy.PageID(ops[i+1] % 16)
			switch ops[i] % 6 {
			case 0:
				r.RecordAccess(p)
			case 1:
				r.SetEvictable(p, true)
			case 2:
				r.SetEvictable(p, false)
			case 3:
				want, wantOK := scanVictim(r.table)
				got, ok := r.Evict()
				if got != want || ok != wantOK {
					t.Fatalf("op %d: Evict = (%d, %v), scan says (%d, %v) (k=%d crp=%d rip=%d)",
						i/2, got, ok, want, wantOK, k, crp, rip)
				}
			case 4:
				r.Remove(p)
			case 5:
				r.Restore(p)
			}
			checkVictimHeap(t, r.table)
			if n := r.Size(); n != countEvictable(r.table) {
				t.Fatalf("op %d: Size = %d, %d pages evictable", i/2, n, countEvictable(r.table))
			}
		}
	})
}

// scanVictim is the brute-force victim choice selectVictim must match.
func scanVictim(t *histTable) (policy.PageID, bool) {
	var best, bestAny vkey
	found, foundAny := false, false
	for p, h := range t.pages {
		if !h.resident || !h.evictable {
			continue
		}
		k := vkey{kth: h.times[len(h.times)-1], hist1: h.times[0], page: p}
		if !foundAny || vkeyLess(k, bestAny) {
			bestAny, foundAny = k, true
		}
		if t.crp > 0 && t.clock-h.last <= t.crp {
			continue
		}
		if !found || vkeyLess(k, best) {
			best, found = k, true
		}
	}
	switch {
	case found:
		return best.page, true
	case foundAny: // every candidate inside its CRP
		return bestAny.page, true
	}
	return policy.InvalidPage, false
}

func countEvictable(t *histTable) int {
	n := 0
	for _, h := range t.pages {
		if h.resident && h.evictable {
			n++
		}
	}
	return n
}

// checkVictimHeap audits the lazy victim heap: slots are consistent, the
// heap property holds on stored keys, every stored key is a lower bound on
// its page's current key, only resident blocks are indexed, and every
// evictable resident page is indexed.
func checkVictimHeap(t *testing.T, tbl *histTable) {
	t.Helper()
	for i, h := range tbl.heap {
		if h.slot != i {
			t.Fatalf("heap[%d] (page %d) records slot %d", i, h.page(), h.slot)
		}
		if tbl.pages[h.page()] != h || !h.resident {
			t.Fatalf("heap[%d]: page %d is not a resident block of the table", i, h.page())
		}
		if i > 0 && vkeyLess(h.ord, tbl.heap[(i-1)/2].ord) {
			t.Fatalf("heap[%d] (page %d) orders before its parent", i, h.page())
		}
		if vkeyLess(h.key(), h.ord) {
			t.Fatalf("page %d: stored key %+v above current key %+v", h.page(), h.ord, h.key())
		}
	}
	for p, h := range tbl.pages {
		if h.page() != p {
			t.Fatalf("block under page %d names page %d", p, h.page())
		}
		if h.slot >= 0 && (h.slot >= len(tbl.heap) || tbl.heap[h.slot] != h) {
			t.Fatalf("page %d: slot %d does not hold its block", p, h.slot)
		}
		if h.evictable && (!h.resident || h.slot < 0) {
			t.Fatalf("page %d: evictable (resident=%v) but not indexed", p, h.resident)
		}
	}
	if n := countEvictable(tbl); tbl.evictable != n {
		t.Fatalf("evictable count %d, %d pages evictable", tbl.evictable, n)
	}
}

// FuzzCacheOperations drives the generic cache with an arbitrary operation
// stream, checking structural invariants throughout.
func FuzzCacheOperations(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2, 10, 20})
	f.Add([]byte{255, 0, 255, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c, err := NewIntCache[int](8, CacheOptions{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, op := range ops {
			key := int64(op % 16)
			switch op % 3 {
			case 0:
				c.Put(key, i)
			case 1:
				if v, ok := c.Get(key); ok && v < 0 {
					t.Fatalf("corrupt value %d", v)
				}
			case 2:
				c.Delete(key)
			}
			if c.Len() > 8 {
				t.Fatalf("op %d: Len %d over capacity", i, c.Len())
			}
		}
	})
}
