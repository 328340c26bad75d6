package core

import (
	"fmt"
	"testing"

	"repro/internal/policy"
)

// deindex makes key's page unselectable as a victim, simulating a full
// shard in which no victim is selectable. The seed implementation admitted
// regardless and the shard grew past capacity; the fixed put must refuse
// admission instead.
func deindex(t *testing.T, c *Cache[string, int], key string) {
	t.Helper()
	s := &c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byKey[key]
	if !ok {
		t.Fatalf("deindex: key %q unknown", key)
	}
	h := s.table.pages[id]
	if !h.evictable || h.slot < 0 {
		t.Fatalf("deindex: key %q not in the victim index", key)
	}
	s.table.setEvictable(h, false)
}

func reindex(t *testing.T, c *Cache[string, int], key string) {
	t.Helper()
	s := &c.shards[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table.setEvictable(s.table.pages[s.byKey[key]], true)
}

// TestCachePutRefusedWithoutVictim is the capacity-overflow regression
// test: a full shard whose eviction comes up empty must refuse a new-key
// admission (and count it) rather than grow past capacity.
func TestCachePutRefusedWithoutVictim(t *testing.T) {
	c := newTestCache(t, 1, CacheOptions{Shards: 1})
	if !c.Put("a", 1) {
		t.Fatal("first Put refused")
	}
	deindex(t, c, "a")
	if c.Put("b", 2) {
		t.Error("Put admitted into a full, victim-less shard")
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d after refused Put, want 1", n)
	}
	if got := c.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	if !c.Contains("a") || c.Contains("b") {
		t.Error("refused Put disturbed residency")
	}
	// A refused key must leave no binding behind.
	s := &c.shards[0]
	s.mu.Lock()
	_, bound := s.byKey["b"]
	s.mu.Unlock()
	if bound {
		t.Error("refused key left a binding")
	}
	// Once the victim is selectable again, admission resumes.
	reindex(t, c, "a")
	if !c.Put("b", 2) {
		t.Error("Put still refused after victim restored")
	}
	if !c.Contains("b") || c.Contains("a") {
		t.Error("post-restore Put did not evict and admit")
	}
}

// TestCacheReadmissionRefusedWithoutVictim covers the same overflow guard
// on the retained-history readmission path of put.
func TestCacheReadmissionRefusedWithoutVictim(t *testing.T) {
	c := newTestCache(t, 1, CacheOptions{Shards: 1})
	c.Put("x", 1)
	c.Put("y", 2) // evicts x; x's history is retained
	if c.Contains("x") || !c.Contains("y") {
		t.Fatal("setup: expected y resident, x evicted")
	}
	deindex(t, c, "y")
	if c.Put("x", 3) {
		t.Error("readmission admitted into a full, victim-less shard")
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d after refused readmission, want 1", n)
	}
	if got := c.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	reindex(t, c, "y")
	if !c.Put("x", 3) {
		t.Error("readmission still refused after victim restored")
	}
	if v, ok := c.Get("x"); !ok || v != 3 {
		t.Errorf("readmitted value = %d,%v, want 3,true", v, ok)
	}
}

// TestCacheCapacityInvariantUnderCorrelatedFlood floods a wall-clock cache
// whose clock never advances, so every reference stays inside the
// Correlated Reference Period. selectVictim's fallback must keep finding
// victims and the resident count must never exceed capacity.
func TestCacheCapacityInvariantUnderCorrelatedFlood(t *testing.T) {
	frozen := policy.Tick(1000)
	c, err := NewStringCache[int](8, CacheOptions{
		Shards:                    1,
		Clock:                     func() policy.Tick { return frozen },
		CorrelatedReferencePeriod: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if !c.Put(fmt.Sprintf("k-%d", i), i) {
			t.Fatalf("Put %d refused: correlated-period fallback broken", i)
		}
		if n := c.Len(); n > 8 {
			t.Fatalf("Len = %d exceeds capacity 8 at put %d", n, i)
		}
	}
	if got := c.Stats().Rejected; got != 0 {
		t.Errorf("Rejected = %d under a flood with victims available, want 0", got)
	}
	if evs := c.Stats().Evictions; evs < 1992 {
		t.Errorf("Evictions = %d, want >= 1992", evs)
	}
}

// TestCacheDeleteReadmissionReusesHistoryBlock pins down the §2.1.2
// mechanism behind TestCacheDeleteRetainsHistory: Delete followed by Put
// of the same key must reuse the same internal page id and HIST block, so
// the pre-delete reference survives as HIST(p,2).
func TestCacheDeleteReadmissionReusesHistoryBlock(t *testing.T) {
	c := newTestCache(t, 4, CacheOptions{Shards: 1})
	c.Put("k", 1)
	s := &c.shards[0]
	s.mu.Lock()
	id1 := s.byKey["k"]
	h1 := s.table.pages[id1]
	t1 := h1.times[0]
	s.mu.Unlock()
	if t1 == 0 {
		t.Fatal("first reference not recorded")
	}

	if !c.Delete("k") {
		t.Fatal("Delete failed")
	}
	c.Put("k", 2)

	s.mu.Lock()
	defer s.mu.Unlock()
	id2 := s.byKey["k"]
	if id2 != id1 {
		t.Fatalf("readmission allocated a new id %d, want %d reused", id2, id1)
	}
	h2 := s.table.pages[id2]
	if h2 != h1 {
		t.Fatal("readmission allocated a new HIST block")
	}
	if !h2.resident {
		t.Error("readmitted block not marked resident")
	}
	if h2.times[1] != t1 {
		t.Errorf("HIST(p,2) = %d, want the pre-delete reference %d", h2.times[1], t1)
	}
	if h2.times[0] == t1 {
		t.Error("readmission did not record a new HIST(p,1)")
	}
}
