package storage_test

import (
	"errors"
	"testing"

	"repro/internal/policy"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

func TestCorruptTaintAndDetect(t *testing.T) {
	c, ids := faultTestBackend(t, 2)
	c.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{ids[0]}}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The write landed (inner ledger counts it) but tainted the page.
	err := c.Read(ctx, ids[0], buf)
	ce, ok := storage.AsCorrupt(err)
	if !ok || ce.Page != ids[0] || ce.Kind != storage.CorruptChecksum {
		t.Fatalf("read of tainted page: %v, want ErrCorrupt{%d, checksum}", err, ids[0])
	}
	if err := c.Read(ctx, ids[1], buf); err != nil {
		t.Fatalf("read of clean page: %v", err)
	}
	// Tainted reads never reach the inner backend: only the untainted read
	// and none of the refused ones count as genuine transfers.
	if s := c.Stats(); s.Reads != 1 || s.Writes != 1 {
		t.Errorf("inner stats %+v, want exactly 1 read and 1 write", s)
	}
	if s := c.CorruptStats(); s.Injected != 1 || s.Detected != 1 || s.Cleared != 0 || s.Tainted != 1 {
		t.Errorf("corrupt stats %+v, want injected=1 detected=1 cleared=0 tainted=1", s)
	}
}

func TestCorruptOverwriteClears(t *testing.T) {
	c, ids := faultTestBackend(t, 1)
	c.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Corrupt: storage.CorruptChecksum, Count: 1, Unrepairable: true}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.Read(ctx, ids[0], buf); !storage.IsCorrupt(err) {
		t.Fatalf("read after taint: %v, want corrupt", err)
	}
	// A fresh overwrite clears even an unrepairable taint (rule exhausted,
	// so the second write does not re-fire).
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := c.Read(ctx, ids[0], buf); err != nil {
		t.Fatalf("read after overwrite: %v, want clean", err)
	}
	if s := c.CorruptStats(); s.Injected != 1 || s.Cleared != 1 || s.Tainted != 0 {
		t.Errorf("corrupt stats %+v, want injected=1 cleared=1 tainted=0", s)
	}
}

func TestCorruptRepairPage(t *testing.T) {
	c, ids := faultTestBackend(t, 2)
	c.SetFaults(storage.NewFaultPlan(1,
		storage.FaultRule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{ids[0]}, Count: 1},
		storage.FaultRule{Corrupt: storage.CorruptChecksum, Pages: []policy.PageID{ids[1]}, Count: 1, Unrepairable: true},
	))
	buf := make([]byte, storage.PageSize)
	for _, id := range ids {
		if err := c.Write(ctx, id, buf); err != nil {
			t.Fatalf("write %d: %v", id, err)
		}
	}
	// Repairable: clears, read succeeds afterwards.
	if err := c.RepairPage(ctx, ids[0]); err != nil {
		t.Fatalf("repair of repairable taint: %v", err)
	}
	if err := c.Read(ctx, ids[0], buf); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	// Unrepairable: RepairPage reports the corruption back, taint stays.
	if err := c.RepairPage(ctx, ids[1]); !storage.IsCorrupt(err) {
		t.Fatalf("repair of unrepairable taint: %v, want corrupt", err)
	}
	if err := c.Read(ctx, ids[1], buf); !storage.IsCorrupt(err) {
		t.Fatalf("read of unrepairable page: %v, want corrupt", err)
	}
	if s := c.CorruptStats(); s.Injected != 2 || s.Cleared != 1 || s.Tainted != 1 {
		t.Errorf("corrupt stats %+v, want injected=2 cleared=1 tainted=1", s)
	}
}

func TestCorruptMisdirectTaintsNeighbour(t *testing.T) {
	c, ids := faultTestBackend(t, 2)
	c.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{
		Pages: []policy.PageID{ids[0]}, Corrupt: storage.CorruptMisdirect, Count: 1}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The written page stays readable; its XOR-1 neighbour took the damage.
	if err := c.Read(ctx, ids[0], buf); err != nil {
		t.Fatalf("read of written page: %v", err)
	}
	err := c.Read(ctx, ids[0]^1, buf)
	ce, ok := storage.AsCorrupt(err)
	if !ok || ce.Kind != storage.CorruptMisdirect {
		t.Fatalf("read of neighbour: %v, want ErrCorrupt misdirect", err)
	}
}

func TestCorruptDeallocateClears(t *testing.T) {
	c, ids := faultTestBackend(t, 1)
	c.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Corrupt: storage.CorruptChecksum, Unrepairable: true}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.Deallocate(ids[0]); err != nil {
		t.Fatalf("deallocate: %v", err)
	}
	if s := c.CorruptStats(); s.Injected != 1 || s.Cleared != 1 || s.Tainted != 0 {
		t.Errorf("corrupt stats %+v, want the taint cleared with the page", s)
	}
}

// TestCorruptLedgerInvariant hammers a seeded plan and checks the wrapper's
// conservation law: every injection is either still tainting a page or was
// cleared, no double counting.
func TestCorruptLedgerInvariant(t *testing.T) {
	c, ids := faultTestBackend(t, 8)
	c.SetFaults(storage.NewFaultPlan(7, storage.FaultRule{Corrupt: storage.CorruptChecksum, Probability: 0.3}))
	buf := make([]byte, storage.PageSize)
	for i := 0; i < 500; i++ {
		id := ids[i%len(ids)]
		if i%3 == 0 {
			_ = c.Read(ctx, id, buf)
		} else if err := c.Write(ctx, id, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s := c.CorruptStats()
	if s.Injected == 0 {
		t.Fatal("plan with p=0.3 over 300+ writes injected nothing")
	}
	if s.Injected != s.Cleared+uint64(s.Tainted) {
		t.Errorf("ledger broken: injected=%d != cleared=%d + tainted=%d", s.Injected, s.Cleared, s.Tainted)
	}
	if got := len(c.TaintedPages()); got != s.Tainted {
		t.Errorf("TaintedPages len %d != stats.Tainted %d", got, s.Tainted)
	}
}

func TestCorruptErrorsPermanent(t *testing.T) {
	if storage.IsTransient(&storage.ErrCorrupt{Page: 3, Kind: storage.CorruptChecksum}) {
		t.Error("ErrCorrupt must be permanent: rereading rotten bytes cannot help")
	}
	if storage.IsTransient(storage.ErrNoSpace) {
		t.Error("ErrNoSpace must be permanent: the device stays full until an operator acts")
	}
	wrapped := &storage.ErrCorrupt{Page: 9, Kind: storage.CorruptTorn}
	if !storage.IsCorrupt(errWrap(errWrap(wrapped))) {
		t.Error("IsCorrupt must see through wrapping")
	}
}

func errWrap(err error) error { return &wrapErr{err} }

type wrapErr struct{ err error }

func (w *wrapErr) Error() string { return "wrapped: " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }

// TestRepairerForWalksChain checks the unwrapping seam: RepairerFor finds a
// Repairer buried under non-repairing wrappers, and reports absence when
// the chain bottoms out without one.
func TestRepairerForWalksChain(t *testing.T) {
	base := sim.New(sim.ServiceModel{})
	stack := storage.WithMetrics(storage.WithFaults(base), storage.Metrics{})
	r, ok := storage.RepairerFor(stack)
	if !ok {
		t.Fatal("RepairerFor missed the injection stage under the metrics wrapper")
	}
	if _, isFaulty := r.(*storage.Faulty); !isFaulty {
		t.Fatalf("RepairerFor returned %T, want the outermost Repairer (*storage.Faulty)", r)
	}
	if _, ok := storage.RepairerFor(storage.WithMetrics(base, storage.Metrics{})); ok {
		t.Error("RepairerFor invented a repairer over the bare simulator")
	}
	var nilBackend storage.Backend
	if _, ok := storage.RepairerFor(nilBackend); ok {
		t.Error("RepairerFor on nil backend")
	}
}

// TestCorruptMisdirectSkipsMissingNeighbour: in an odd-sized store the last
// page's XOR-1 neighbour was never allocated, so a misdirect there lands on
// no page and injects nothing — and the ledger drains once every allocated
// page is overwritten.
func TestCorruptMisdirectSkipsMissingNeighbour(t *testing.T) {
	c, ids := faultTestBackend(t, 3)
	c.SetFaults(storage.NewFaultPlan(1, storage.FaultRule{Corrupt: storage.CorruptMisdirect, Count: 2}))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[2], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if s := c.CorruptStats(); s != (storage.CorruptStats{}) {
		t.Fatalf("misdirect onto missing page %d: corrupt stats %+v, want all zero", ids[2]^1, s)
	}
	if err := c.Read(ctx, ids[2]^1, buf); !errors.Is(err, storage.ErrPageNotAllocated) {
		t.Fatalf("read of missing neighbour: %v, want ErrPageNotAllocated", err)
	}
	// A neighbour that exists still takes the damage.
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if s := c.CorruptStats(); s.Injected != 1 || s.Tainted != 1 {
		t.Fatalf("misdirect onto page %d: corrupt stats %+v, want injected=1 tainted=1", ids[0]^1, s)
	}
	for _, id := range ids {
		if err := c.Write(ctx, id, buf); err != nil {
			t.Fatalf("overwrite %d: %v", id, err)
		}
	}
	if s := c.CorruptStats(); s.Injected != 1 || s.Cleared != 1 || s.Tainted != 0 {
		t.Errorf("corrupt stats %+v after overwriting every page, want injected=1 cleared=1 tainted=0", s)
	}
}

// TestMixedPlan arms one plan with fault and corruption rules together and
// checks the order the wrapper applies them in: a faulted write never
// reaches the media, so it neither clears a taint nor consumes a corruption
// rule's budget, and a faulted read is a fault, not a detection.
func TestMixedPlan(t *testing.T) {
	c, ids := faultTestBackend(t, 2)
	c.SetFaults(storage.NewFaultPlan(1,
		storage.FaultRule{Op: storage.OpWrite, Pages: []policy.PageID{ids[0]}, After: 1, Count: 1},
		storage.FaultRule{Op: storage.OpRead, Count: 1},
		storage.FaultRule{Corrupt: storage.CorruptChecksum, Count: 2},
	))
	buf := make([]byte, storage.PageSize)
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if s := c.CorruptStats(); s.Injected != 1 || s.Tainted != 1 {
		t.Fatalf("corrupt stats %+v after first write, want injected=1 tainted=1", s)
	}
	// The second write of ids[0] faults: the taint stays, nothing counted.
	if err := c.Write(ctx, ids[0], buf); !errors.Is(err, storage.ErrInjectedFault) {
		t.Fatalf("second write: %v, want injected fault", err)
	}
	if s := c.CorruptStats(); s != (storage.CorruptStats{Injected: 1, Tainted: 1}) {
		t.Fatalf("corrupt stats %+v after faulted write, want injected=1 tainted=1 only", s)
	}
	// A read fault on the tainted page is a fault, not a detection.
	err := c.Read(ctx, ids[0], buf)
	if !errors.Is(err, storage.ErrInjectedFault) || storage.IsCorrupt(err) {
		t.Fatalf("faulted read: %v, want injected fault", err)
	}
	if s := c.CorruptStats(); s.Detected != 0 {
		t.Fatalf("faulted read counted as a detection: %+v", s)
	}
	if err := c.Read(ctx, ids[0], buf); !storage.IsCorrupt(err) {
		t.Fatalf("read of tainted page: %v, want corrupt", err)
	}
	// The corruption rule still has its second injection: the faulted
	// write did not consume it.
	if err := c.Write(ctx, ids[1], buf); err != nil {
		t.Fatalf("write of second page: %v", err)
	}
	// The rule is now spent, so this write is clean and clears the taint.
	if err := c.Write(ctx, ids[0], buf); err != nil {
		t.Fatalf("clean write: %v", err)
	}
	if err := c.Read(ctx, ids[0], buf); err != nil {
		t.Fatalf("read after clean write: %v", err)
	}
	want := storage.CorruptStats{Injected: 2, Detected: 1, Cleared: 1, Tainted: 1}
	if s := c.CorruptStats(); s != want {
		t.Errorf("corrupt stats %+v, want %+v", s, want)
	}
	if got := c.TaintedPages(); len(got) != 1 || got[0] != ids[1] {
		t.Errorf("tainted pages %v, want [%d]", got, ids[1])
	}
	// Only the three media writes and the one clean read reached the sim.
	if s := c.Stats(); s.Reads != 1 || s.Writes != 3 || s.ReadFaults != 1 || s.WriteFaults != 1 {
		t.Errorf("stats %+v, want 1 read, 3 writes, 1 read fault, 1 write fault", s)
	}
}
