package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// newCorruptDisk builds a simulator wrapped in the corruption stage and
// preloads n stamped pages through it (plan disarmed, so the preload is
// clean).
func newCorruptDisk(t *testing.T, n int) (*storage.Corrupter, []policy.PageID) {
	t.Helper()
	c := storage.WithCorruption(sim.New(sim.ServiceModel{}))
	ids := make([]policy.PageID, n)
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storage.MustAllocate(c)
		buf[0] = byte(i + 1)
		if err := c.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	return c, ids
}

// taint corrupts page id through the wrapper: arm a one-shot rule for it,
// rewrite its current content (the write passes through, then taints), and
// disarm again.
func taint(t *testing.T, c *storage.Corrupter, id policy.PageID, unrepairable bool) {
	t.Helper()
	buf := make([]byte, storage.PageSize)
	if err := c.Read(context.Background(), id, buf); err != nil {
		t.Fatalf("taint pre-read of %d: %v", id, err)
	}
	c.SetCorruption(storage.NewCorruptPlan(1, storage.CorruptRule{
		Pages: []policy.PageID{id}, Count: 1, Unrepairable: unrepairable}))
	if err := c.Write(context.Background(), id, buf); err != nil {
		t.Fatalf("taint write of %d: %v", id, err)
	}
	c.SetCorruption(nil)
}

func TestFetchReadRepair(t *testing.T) {
	c, ids := newCorruptDisk(t, 2)
	taint(t, c, ids[0], false)
	p := New(c, 2, core.NewSyncReplacer(2, core.Options{}))
	defer p.Close()

	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatalf("fetch of repairable-corrupt page: %v", err)
	}
	if pg.Data()[0] != 1 {
		t.Errorf("repaired page holds %d, want the preloaded stamp", pg.Data()[0])
	}
	pg.Unpin(false)

	s := p.Stats()
	if s.CorruptDetected != 1 || s.CorruptRepaired != 1 || s.CorruptQuarantined != 0 {
		t.Errorf("stats %+v, want detected=1 repaired=1 quarantined=0", s)
	}
	cs := c.CorruptStats()
	if cs.Injected != 1 || cs.Detected != 1 || cs.Cleared != 1 || cs.Tainted != 0 {
		t.Errorf("wrapper ledger %+v, want injected=detected=cleared=1 tainted=0", cs)
	}
}

func TestFetchUnrepairableQuarantinesAndFailsFast(t *testing.T) {
	c, ids := newCorruptDisk(t, 2)
	taint(t, c, ids[0], true)
	p := New(c, 2, core.NewSyncReplacer(2, core.Options{}))
	defer p.Close()

	if _, err := p.Fetch(ids[0]); !storage.IsCorrupt(err) {
		t.Fatalf("fetch of unrepairable page: %v, want corrupt", err)
	}
	if got := p.PoisonedPages(); len(got) != 1 || got[0] != ids[0] {
		t.Fatalf("poisoned set %v, want [%d]", got, ids[0])
	}

	// Further fetches fail fast: same error, no disk attempt, no fresh
	// detection.
	reads := c.Stats().Reads
	if _, err := p.Fetch(ids[0]); !storage.IsCorrupt(err) {
		t.Fatalf("second fetch: %v, want corrupt", err)
	}
	if got := c.Stats().Reads; got != reads {
		t.Errorf("poisoned fetch touched the disk (%d reads, was %d)", got, reads)
	}
	s := p.Stats()
	if s.CorruptDetected != 1 || s.CorruptQuarantined != 1 || s.CorruptRepaired != 0 {
		t.Errorf("stats %+v, want one detection, one quarantine", s)
	}
	if s.Misses != 2 || s.ReadErrors != 2 {
		t.Errorf("stats %+v, want both failed fetches counted as misses and read errors", s)
	}

	// The clean sibling is unaffected.
	pg, err := p.Fetch(ids[1])
	if err != nil {
		t.Fatalf("fetch of clean page: %v", err)
	}
	pg.Unpin(false)

	// Deleting the page clears its quarantine with it.
	if err := p.DeletePage(ids[0]); err != nil {
		t.Fatalf("delete of poisoned page: %v", err)
	}
	if got := p.PoisonedPages(); len(got) != 0 {
		t.Errorf("poison survived DeletePage: %v", got)
	}
}

// TestCorruptCountsAgainstBreaker: quarantined detections are permanent
// stripe failures — enough of them open the circuit, so a stripe rotting
// wholesale sheds load instead of burning every fetch on doomed reads.
func TestCorruptCountsAgainstBreaker(t *testing.T) {
	c, _ := newCorruptDisk(t, 1)
	// Collect three pages on one stripe: two to rot, one to probe with.
	byStripe := map[int][]policy.PageID{}
	var stripe int
	buf := make([]byte, storage.PageSize)
	for {
		id := storage.MustAllocate(c)
		if err := c.Write(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		s := c.StripeOf(id)
		byStripe[s] = append(byStripe[s], id)
		if len(byStripe[s]) == 3 {
			stripe = s
			break
		}
	}
	rotA, rotB, probe := byStripe[stripe][0], byStripe[stripe][1], byStripe[stripe][2]
	taint(t, c, rotA, true)
	taint(t, c, rotB, true)

	p := NewWithConfig(c, 4, core.NewSyncReplacer(4, core.Options{}), Config{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: time.Minute, Probes: 1},
	})
	defer p.Close()
	if _, err := p.Fetch(rotA); !storage.IsCorrupt(err) {
		t.Fatalf("fetch rotA: %v", err)
	}
	if _, err := p.Fetch(rotB); !storage.IsCorrupt(err) {
		t.Fatalf("fetch rotB: %v", err)
	}
	// Two permanent failures tripped the stripe: the clean page is now
	// refused locally, without a disk attempt.
	if _, err := p.Fetch(probe); !errors.Is(err, ErrDiskUnavailable) {
		t.Fatalf("fetch on tripped stripe: %v, want ErrDiskUnavailable", err)
	}
	if s := p.Stats(); s.BreakerTrips == 0 || s.ReadsRejected == 0 {
		t.Errorf("stats %+v, want a breaker trip and a rejected read", s)
	}
}

// TestScrubberHealsInBackground: the scrubber finds corruption on pages no
// client has ever fetched and repairs it before a read trips over it.
func TestScrubberHealsInBackground(t *testing.T) {
	leakcheck.Check(t)
	c, ids := newCorruptDisk(t, 8)
	taint(t, c, ids[5], false)
	p := NewWithConfig(c, 4, core.NewSyncReplacer(4, core.Options{}), Config{
		ScrubInterval: 200 * time.Microsecond,
		ScrubBatch:    16,
	})
	p.Start()

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := p.Stats()
		if s.ScrubCorrupt >= 1 && s.CorruptRepaired >= 1 && c.CorruptStats().Tainted == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrubber never healed the taint: %+v, wrapper %+v", s, c.CorruptStats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := p.Stats(); s.ScrubPages == 0 {
		t.Errorf("scrubber verified no clean pages: %+v", s)
	}
	pg, err := p.Fetch(ids[5])
	if err != nil {
		t.Fatalf("fetch after background heal: %v", err)
	}
	if pg.Data()[0] != 6 {
		t.Errorf("healed page holds %d, want its preloaded stamp", pg.Data()[0])
	}
	pg.Unpin(false)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestENOSPCFailsFastWhileHitsServe: a full device is a permanent
// condition — allocations and write-backs fail without retry burn, while
// resident pages keep serving from memory.
func TestENOSPCFailsFastWhileHitsServe(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	ids := allocPages(t, d, 2)
	p := NewWithConfig(d, 2, core.NewSyncReplacer(2, core.Options{}), Config{
		Retry: RetryConfig{Attempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Seed: 1},
	})
	defer p.Close()

	// Warm a page, then fill the device.
	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.Unpin(true)
	d.SetFaults(storage.NewFaultPlan(1,
		storage.FaultRule{Op: storage.OpAllocate, Err: storage.ErrNoSpace},
		storage.FaultRule{Op: storage.OpWrite, Err: storage.ErrNoSpace},
	))

	if _, err := p.NewPage(); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("NewPage on full device: %v, want ErrNoSpace", err)
	}
	if err := p.FlushPage(ids[0]); !errors.Is(err, storage.ErrNoSpace) {
		t.Fatalf("flush on full device: %v, want ErrNoSpace", err)
	}
	s := p.Stats()
	if s.WriteRetries != 0 || s.ReadRetries != 0 {
		t.Errorf("retry ladder spun on a permanent ENOSPC: %+v", s)
	}
	if s.WriteErrors != 1 {
		t.Errorf("stats %+v, want exactly one write error", s)
	}
	// The resident page still serves — out-of-space starves writes, not
	// memory.
	pg, err = p.Fetch(ids[0])
	if err != nil {
		t.Fatalf("hit during ENOSPC: %v", err)
	}
	pg.Unpin(false)
	if hits := p.Stats().Hits; hits == 0 {
		t.Error("no hit recorded during ENOSPC")
	}
	d.SetFaults(nil)
}

// TestCorruptionStorm is the integrity headline: many goroutines hammer a
// small pool while the corruption stage taints write-backs — bit rot,
// misdirected writes landing on a neighbour, and a bounded run of
// unrepairable damage. The background scrubber runs throughout. Individual
// fetches may fail with the corruption error; the pool may not lose data
// or miscount. After the storm the injection ledger must reconcile exactly
// with the pool's integrity counters and the disk's transfer ledger, and
// the set of pages still tainted must be exactly the set the pool
// quarantined.
func TestCorruptionStorm(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		runCorruptionStorm(t, sim.New(sim.ServiceModel{}))
	})
	t.Run("file", func(t *testing.T) {
		s, err := file.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		runCorruptionStorm(t, s)
	})
}

func runCorruptionStorm(t *testing.T, base storage.Backend) {
	const (
		goroutines = 8
		pages      = 128 // even: a misdirect taints id^1, which must stay in range
		frames     = 32
		opsPerG    = 1500
		seed       = 7
	)
	leakcheck.Check(t)
	c := storage.WithCorruption(base)
	ids := make([]policy.PageID, pages)
	committed := make([]uint64, pages) // owner-goroutine writes, read after Wait
	buf := make([]byte, storage.PageSize)
	for i := range ids {
		ids[i] = storage.MustAllocate(c)
		if ids[i] != policy.PageID(i) {
			t.Fatalf("storm needs contiguous ids from 0, got %d at %d", ids[i], i)
		}
		committed[i] = uint64(1000 + i)
		binary.LittleEndian.PutUint64(buf, committed[i])
		if err := c.Write(context.Background(), ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	preload := uint64(pages)

	// The storm's corruption plan, armed only after the clean preload: a
	// bounded burst of unrepairable damage, a misdirect trickle, and a
	// steady bit-rot rate.
	c.SetCorruption(storage.NewCorruptPlan(seed,
		storage.CorruptRule{Probability: 0.02, Count: 16, Unrepairable: true},
		storage.CorruptRule{Probability: 0.02, Kind: storage.CorruptMisdirect},
		storage.CorruptRule{Probability: 0.05},
	))

	p := NewWithConfig(c, frames, core.NewSyncReplacer(2, core.Options{}), Config{
		Shards: 16,
		// The breaker is armed but effectively untrippable: this storm
		// reconciles ledgers exactly, and breaker rejections would make
		// which-fetch-fails schedule-dependent in ways the data checks
		// below do not need. Breaker/corruption interaction has its own
		// test.
		Breaker:        BreakerConfig{Threshold: 1 << 30, Cooldown: time.Millisecond, Probes: 1},
		WriterInterval: time.Millisecond,
		ScrubInterval:  500 * time.Microsecond,
		ScrubBatch:     64,
	})
	p.Start()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := stats.NewRNG(seed + uint64(g))
			for op := 0; op < opsPerG; op++ {
				i := rng.Intn(pages)
				id := ids[i]
				own := i%goroutines == g
				if own && op%64 == 63 {
					_ = p.FlushPage(id) // occasional explicit write-back
					continue
				}
				pg, err := p.Fetch(id)
				if err != nil {
					// Corruption casualties (repair failed, or the id is
					// quarantined) and exhausted sweeps are expected;
					// anything else is a pool bug.
					if !storage.IsCorrupt(err) && !errors.Is(err, ErrNoFreeFrame) {
						t.Errorf("goroutine %d: fetch %d: %v", g, id, err)
					}
					continue
				}
				if own {
					v := committed[i] + 1
					binary.LittleEndian.PutUint64(pg.Data(), v)
					committed[i] = v
					pg.Unpin(true)
				} else {
					pg.Unpin(false)
				}
			}
		}(g)
	}
	wg.Wait()

	// Phase 2: disarm injection (existing taints stay — damage on the media
	// does not evaporate) and drive the pool to a fixed point: everything
	// repairable repaired, everything else quarantined.
	c.SetCorruption(nil)
	ctx := context.Background()

	// The storm can finish before the background scrubber ever wins the
	// race to a corrupt page (fetches detect first), so hand it one
	// detection deterministically: flush a clean page, taint it below the
	// pool, and sweep. The side-channel read and write are added to the
	// ledger expectations below.
	var sideReads, sideWrites uint64
	{
		inSet := func(set []policy.PageID, id policy.PageID) bool {
			for _, s := range set {
				if s == id {
					return true
				}
			}
			return false
		}
		tainted, poisoned := c.TaintedPages(), p.PoisonedPages()
		target, found := policy.PageID(0), false
		for _, id := range ids {
			if !inSet(tainted, id) && !inSet(poisoned, id) {
				target, found = id, true
				break
			}
		}
		if !found {
			t.Fatal("storm left no clean page to seed the scrubber with")
		}
		if err := p.FlushPage(target); err != nil && !errors.Is(err, ErrPageNotResident) {
			t.Fatalf("flush of scrub target %d: %v", target, err)
		}
		if err := c.Read(ctx, target, buf); err != nil {
			t.Fatalf("side read of scrub target: %v", err)
		}
		sideReads++
		c.SetCorruption(storage.NewCorruptPlan(1, storage.CorruptRule{
			Pages: []policy.PageID{target}, Count: 1}))
		if err := c.Write(ctx, target, buf); err != nil {
			t.Fatalf("side write of scrub target: %v", err)
		}
		sideWrites++
		c.SetCorruption(nil)
		p.ScrubSweep(ctx, pages)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := p.FlushAll(); err != nil {
			t.Fatalf("post-storm flush: %v", err)
		}
		p.ScrubSweep(ctx, pages)
		tainted := c.TaintedPages()
		poisoned := p.PoisonedPages()
		if pageSetsEqual(tainted, poisoned) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no fixed point: tainted %v vs poisoned %v", tainted, poisoned)
		}
		time.Sleep(time.Millisecond)
	}

	// Data: every non-quarantined page must hold its owner's last committed
	// value; every quarantined page must refuse with the corruption error.
	poisoned := make(map[policy.PageID]bool)
	for _, id := range p.PoisonedPages() {
		poisoned[id] = true
	}
	for i, id := range ids {
		if poisoned[id] {
			if _, err := p.Fetch(id); !storage.IsCorrupt(err) {
				t.Errorf("quarantined page %d served: %v", id, err)
			}
			continue
		}
		pg, err := p.Fetch(id)
		if err != nil {
			t.Errorf("post-storm fetch of clean page %d: %v", id, err)
			continue
		}
		if got := binary.LittleEndian.Uint64(pg.Data()); got != committed[i] {
			t.Errorf("page %d: holds %d, owner committed %d (lost update)", id, got, committed[i])
		}
		pg.Unpin(false)
	}

	free, tabled := frameAccounting(p)
	if free+tabled != p.NumFrames() {
		t.Errorf("frame accounting: %d free + %d resident != %d frames", free, tabled, p.NumFrames())
	}
	// Close stops the background scrubber before the ledgers are read: a
	// scrub read still in flight is already in the disk's read count but
	// not yet in ScrubPages. Nothing is dirty, so Close writes nothing.
	if err := p.Close(); err != nil {
		t.Errorf("Close after storm: %v", err)
	}

	s, ds, cs := p.Stats(), c.Stats(), c.CorruptStats()

	// Injection conservation: every taint ever laid is either cleared
	// (overwritten or repaired) or still on a page — and every page still
	// tainted is exactly one the pool quarantined.
	if cs.Injected != cs.Cleared+uint64(cs.Tainted) {
		t.Errorf("wrapper ledger broken: injected=%d != cleared=%d + tainted=%d",
			cs.Injected, cs.Cleared, cs.Tainted)
	}
	// Every detection resolved exactly once.
	if s.CorruptDetected != s.CorruptRepaired+s.CorruptQuarantined {
		t.Errorf("detections unresolved: detected=%d != repaired=%d + quarantined=%d",
			s.CorruptDetected, s.CorruptRepaired, s.CorruptQuarantined)
	}
	// Transfer ledger: every disk read is a non-coalesced, non-failed,
	// non-refused miss or a clean scrub probe; every write beyond the
	// preload is a counted write-back (scrub rewrites included).
	if want := s.Misses - s.Coalesced - s.ReadErrors - s.ReadsRejected + s.ScrubPages + sideReads; ds.Reads != want {
		t.Errorf("disk reads = %d, want misses-coalesced-readErrors-readsRejected+scrubPages+side = %d",
			ds.Reads, want)
	}
	if want := preload + s.WriteBacks + sideWrites; ds.Writes != want {
		t.Errorf("disk writes = %d, want preload+writeBacks+side = %d", ds.Writes, want)
	}
	if s.ReadRetries != 0 || s.WriteRetries != 0 {
		t.Errorf("retry ladder spun on permanent corruption: %+v", s)
	}
	if s.Hits == 0 || s.Misses == 0 || s.CorruptDetected == 0 || s.CorruptRepaired == 0 ||
		s.CorruptQuarantined == 0 || s.ScrubPages == 0 || s.ScrubCorrupt == 0 {
		t.Errorf("storm did not exercise all integrity paths: %+v", s)
	}
}

func pageSetsEqual(a, b []policy.PageID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]policy.PageID(nil), a...)
	bs := append([]policy.PageID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
