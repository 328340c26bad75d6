package bufferpool

import (
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/file"
	"repro/internal/storage/sim"
)

// TestMissCoalescingSingleRead verifies the in-flight miss protocol: with
// the loader parked inside its disk read, every concurrent fetch of the
// same page must join the in-flight frame instead of issuing its own read.
func TestMissCoalescingSingleRead(t *testing.T) {
	var gate atomic.Bool
	blocked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	d := newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if gate.Load() {
			once.Do(func() { close(blocked) })
			<-release
		}
	}})
	id := storage.MustAllocate(d)
	buf := make([]byte, storage.PageSize)
	binary.LittleEndian.PutUint64(buf, 0xfeedface)
	if err := d.Write(context.Background(), id, buf); err != nil {
		t.Fatal(err)
	}
	gate.Store(true)

	p := New(d, 4, core.NewSyncReplacer(2, core.Options{}))
	const waiters = 7
	var wg sync.WaitGroup
	errs := make(chan error, waiters+1)
	fetch := func() {
		defer wg.Done()
		pg, err := p.Fetch(id)
		if err != nil {
			errs <- err
			return
		}
		if got := binary.LittleEndian.Uint64(pg.Data()); got != 0xfeedface {
			errs <- errors.New("coalesced fetch returned wrong data")
		}
		pg.Unpin(false)
	}
	wg.Add(1)
	go fetch() // the loader
	<-blocked  // loader is now inside disk.Read with the in-flight frame installed
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go fetch() // must all coalesce: the page stays loading until release
	}
	// Wait until every waiter has pinned the in-flight frame, then let the
	// read finish. The loader holds pin 1; each waiter adds one.
	for waitersIn := 0; waitersIn < waiters; {
		waitersIn = int(p.frameFor(id).pins()) - 1
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if reads := d.Stats().Reads; reads != 1 {
		t.Errorf("concurrent same-page misses issued %d disk reads, want 1", reads)
	}
	s := p.Stats()
	if s.Coalesced != waiters {
		t.Errorf("Coalesced = %d, want %d", s.Coalesced, waiters)
	}
	if s.Misses != waiters+1 || s.Hits != 0 {
		t.Errorf("stats %+v, want %d misses 0 hits", s, waiters+1)
	}
}

// TestPoolMatchesSerialOnDeterministicTrace replays one deterministic
// single-threaded trace (fetches, dirtying writes, flushes) through the
// single-latch Serial pool and the concurrent Pool at several latch
// partition counts: every counter — pool, policy and disk — must agree
// exactly, because a mutex-wrapped replacer makes identical decisions on
// a serialisable history. The trace runs on the simulator with the §2.1
// periods off, then under "periods" with both periods on over each storage
// backend, where it also exercises correlated-reference collapses and
// retention purges.
func TestPoolMatchesSerialOnDeterministicTrace(t *testing.T) {
	const (
		frames = 50
		pages  = 800
		refs   = 40000
	)
	type step struct {
		id    policy.PageID
		dirty bool
		flush bool
	}
	r := stats.NewRNG(7)
	script := make([]step, refs)
	for i := range script {
		var id policy.PageID
		if i%2 == 0 {
			id = policy.PageID(r.Intn(40)) // hot set
		} else {
			id = policy.PageID(40 + r.Intn(pages-40))
		}
		script[i] = step{id: id, dirty: i%7 == 6, flush: i%997 == 996}
	}

	// FlushAll walks map snapshots in hash order, so the write *order* of
	// the final flush — and with it the seek-discount component of
	// ServiceMicros — is not deterministic even run to run. Compare full
	// disk stats at the trace end, and only the I/O counts after FlushAll.
	type outcome struct {
		pool       Stats
		policy     core.PolicyStats
		trace      storage.Stats
		finalReads uint64
		finalWrite uint64
	}
	replay := func(t *testing.T, d storage.Backend, p fetcherPool, policyStats func() core.PolicyStats) outcome {
		for _, st := range script {
			pg, err := p.Fetch(st.id)
			if err != nil {
				t.Fatal(err)
			}
			if st.dirty {
				pg.Data()[0]++
			}
			pg.Unpin(st.dirty)
			if st.flush {
				if err := p.FlushPage(st.id); err != nil {
					t.Fatal(err)
				}
			}
		}
		trace := d.Stats()
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		return outcome{p.PoolStats(), policyStats(), trace, d.Stats().Reads, d.Stats().Writes}
	}

	openSim := func(t *testing.T) storage.Backend { return newFaultyDisk(sim.ServiceModel{}) }
	openFile := func(t *testing.T) storage.Backend {
		s, err := file.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	check := func(t *testing.T, openBackend func(t *testing.T) storage.Backend, opts core.Options) {
		open := func() storage.Backend {
			d := openBackend(t)
			for i := 0; i < pages; i++ {
				storage.MustAllocate(d)
			}
			return d
		}
		d := open()
		sr := core.NewReplacer(2, opts)
		want := replay(t, d, serialFetcher{NewSerial(d, frames, sr)}, sr.PolicyStats)
		if opts != (core.Options{}) && (want.policy.Collapses == 0 || want.policy.Purges == 0) {
			t.Errorf("trace did not exercise collapse+purge paths: %+v", want.policy)
		}
		for _, shards := range []int{1, 8, 64} {
			d := open()
			r := core.NewSyncReplacer(2, opts)
			got := replay(t, d, poolFetcher{NewWithConfig(d, frames, r, Config{Shards: shards})}, r.PolicyStats)
			if got.pool != want.pool {
				t.Errorf("shards=%d: pool stats %+v, want %+v", shards, got.pool, want.pool)
			}
			if got.policy != want.policy {
				t.Errorf("shards=%d: policy stats %+v, want %+v", shards, got.policy, want.policy)
			}
			if got.trace != want.trace {
				t.Errorf("shards=%d: disk stats %+v, want %+v", shards, got.trace, want.trace)
			}
			if got.finalReads != want.finalReads || got.finalWrite != want.finalWrite {
				t.Errorf("shards=%d: post-flush I/O counts (%d,%d), want (%d,%d)",
					shards, got.finalReads, got.finalWrite, want.finalReads, want.finalWrite)
			}
			if got.pool.Coalesced != 0 {
				t.Errorf("shards=%d: single-threaded replay coalesced %d misses", shards, got.pool.Coalesced)
			}
		}
	}
	periods := core.Options{CorrelatedReferencePeriod: 3, RetainedInformationPeriod: 200}
	t.Run("sim", func(t *testing.T) { check(t, openSim, core.Options{}) })
	t.Run("periods", func(t *testing.T) {
		t.Run("sim", func(t *testing.T) { check(t, openSim, periods) })
		t.Run("file", func(t *testing.T) { check(t, openFile, periods) })
	})
}

// fetcherPool is the slice of the Serial/Pool surface the differential
// trace needs, plus a uniform stats accessor.
type fetcherPool interface {
	Fetch(id policy.PageID) (pageHandle, error)
	FlushPage(id policy.PageID) error
	FlushAll() error
	PoolStats() Stats
}

type pageHandle interface {
	Data() []byte
	Unpin(dirty bool)
}

type serialFetcher struct{ p *Serial }

func (s serialFetcher) Fetch(id policy.PageID) (pageHandle, error) {
	pg, err := s.p.Fetch(id)
	if err != nil {
		return nil, err
	}
	return pg, nil
}
func (s serialFetcher) FlushPage(id policy.PageID) error { return s.p.FlushPage(id) }
func (s serialFetcher) FlushAll() error                  { return s.p.FlushAll() }
func (s serialFetcher) PoolStats() Stats                 { return s.p.Stats() }

type poolFetcher struct{ p *Pool }

func (s poolFetcher) Fetch(id policy.PageID) (pageHandle, error) {
	pg, err := s.p.Fetch(id)
	if err != nil {
		return nil, err
	}
	return pg, nil
}
func (s poolFetcher) FlushPage(id policy.PageID) error { return s.p.FlushPage(id) }
func (s poolFetcher) FlushAll() error                  { return s.p.FlushAll() }
func (s poolFetcher) PoolStats() Stats                 { return s.p.Stats() }

// TestFastHitProbe pins down the latch-free hit path: once a page has been
// fetched and published to its shard's hot slots, a repeat fetch must be
// served by the lock-free probe (FastHits advances) with ordinary hit
// accounting, and eviction must invalidate the published frame so the
// probe cannot resurrect a page the pool evicted.
func TestFastHitProbe(t *testing.T) {
	d := sim.New(sim.ServiceModel{})
	var ids []policy.PageID
	for i := 0; i < 8; i++ {
		ids = append(ids, storage.MustAllocate(d))
	}
	p := NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{Shards: 4})

	warm := func(id policy.PageID) {
		pg, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		pg.Unpin(false)
	}
	warm(ids[0])
	if got := p.FastHits(); got != 0 {
		t.Fatalf("cold fetch counted %d fast hits, want 0", got)
	}
	warm(ids[0])
	if got := p.FastHits(); got != 1 {
		t.Fatalf("repeat fetch counted %d fast hits, want 1 (probe missed)", got)
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit 1 miss", s)
	}

	// Evict ids[0] by filling the pool, then fetch it again: the probe must
	// not serve the stale frame (its epoch advanced and the page moved on).
	for _, id := range ids[1:] {
		warm(id)
	}
	pg, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Data(); got == nil {
		t.Fatal("nil data from re-fetched page")
	}
	pg.Unpin(false)
	s = p.Stats()
	if s.Evictions == 0 {
		t.Fatalf("fill did not evict: %+v", s)
	}
	if s.Hits+s.Misses != uint64(len(ids)+2) {
		t.Fatalf("accounting drifted: %+v over %d fetches", s, len(ids)+2)
	}
}

// TestPoolConcurrentStressRace hammers the pool from many goroutines with
// a mix of shared read-only pages and per-goroutine private read/write
// pages, plus flushes and metadata queries, then checks data integrity and
// the exact accounting identity Reads == Misses - Coalesced.
func TestPoolConcurrentStressRace(t *testing.T) {
	const (
		goroutines = 12
		sharedN    = 96
		iters      = 4000
		frames     = 48
	)
	d := newFaultyDisk(sim.ServiceModel{})
	shared := make([]policy.PageID, sharedN)
	buf := make([]byte, storage.PageSize)
	for i := range shared {
		shared[i] = storage.MustAllocate(d)
		binary.LittleEndian.PutUint64(buf, uint64(shared[i]))
		if err := d.Write(context.Background(), shared[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	private := make([]policy.PageID, goroutines)
	for i := range private {
		private[i] = storage.MustAllocate(d)
		clear(buf)
		if err := d.Write(context.Background(), private[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	setupWrites := d.Stats().Writes

	p := NewWithConfig(d, frames,
		core.NewSyncReplacer(2, core.Options{}), Config{Shards: 16})
	var fetched atomic.Uint64
	writes := make([]uint64, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := stats.NewRNG(uint64(g + 1))
			own := private[g]
			for i := 0; i < iters; i++ {
				switch op := r.Intn(100); {
				case op < 65: // shared read
					id := shared[r.Intn(sharedN)]
					pg, err := p.Fetch(id)
					if err != nil {
						if errors.Is(err, ErrNoFreeFrame) {
							continue
						}
						errs <- err
						return
					}
					fetched.Add(1)
					if got := binary.LittleEndian.Uint64(pg.Data()); got != uint64(id) {
						errs <- errors.New("shared page holds another page's data")
						pg.Unpin(false)
						return
					}
					pg.Unpin(false)
				case op < 85: // private read-modify-write
					pg, err := p.Fetch(own)
					if err != nil {
						if errors.Is(err, ErrNoFreeFrame) {
							continue
						}
						errs <- err
						return
					}
					fetched.Add(1)
					got := binary.LittleEndian.Uint64(pg.Data())
					if got != writes[g] {
						errs <- errors.New("private page lost writes")
						pg.Unpin(false)
						return
					}
					binary.LittleEndian.PutUint64(pg.Data(), got+1)
					writes[g]++
					pg.Unpin(true)
				case op < 92: // flush own page
					if err := p.FlushPage(own); err != nil && !errors.Is(err, ErrPageNotResident) {
						errs <- err
						return
					}
				default: // metadata queries race along
					p.Resident(shared[r.Intn(sharedN)])
					p.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	ds := d.Stats() // capture before the verification reads below
	// Every private counter must equal that goroutine's successful writes.
	for g, id := range private {
		if err := d.Read(context.Background(), id, buf); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != writes[g] {
			t.Errorf("goroutine %d: page holds %d, wrote %d times", g, got, writes[g])
		}
	}
	if s.Hits+s.Misses != fetched.Load() {
		t.Errorf("Hits+Misses = %d, want %d successful fetches", s.Hits+s.Misses, fetched.Load())
	}
	if ds.Reads != s.Misses-s.Coalesced {
		t.Errorf("disk reads %d != misses %d - coalesced %d", ds.Reads, s.Misses, s.Coalesced)
	}
	if s.WriteBacks != ds.Writes-setupWrites {
		t.Errorf("WriteBacks %d != disk writes %d", s.WriteBacks, ds.Writes-setupWrites)
	}
	if s.Evictions > s.Misses {
		t.Errorf("Evictions %d exceed Misses %d", s.Evictions, s.Misses)
	}
}

// TestPoolConcurrentNewDelete exercises the allocate → write → verify →
// delete lifecycle from many goroutines at once; at the end the disk must
// hold no pages and the pool no residents.
func TestPoolConcurrentNewDelete(t *testing.T) {
	const goroutines = 8
	d := newFaultyDisk(sim.ServiceModel{})
	p := NewWithConfig(d, 32, core.NewSyncReplacer(2, core.Options{}), Config{Shards: 8})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				pg, err := p.NewPage()
				if err != nil {
					if errors.Is(err, ErrNoFreeFrame) {
						continue
					}
					errs <- err
					return
				}
				id := pg.ID()
				binary.LittleEndian.PutUint64(pg.Data(), uint64(id))
				pg.Unpin(true)
				if pg2, err := p.Fetch(id); err == nil {
					if got := binary.LittleEndian.Uint64(pg2.Data()); got != uint64(id) {
						errs <- errors.New("fresh page lost its marker")
						pg2.Unpin(false)
						return
					}
					pg2.Unpin(false)
				} else if !errors.Is(err, ErrNoFreeFrame) {
					errs <- err
					return
				}
				if err := p.DeletePage(id); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := d.NumPages(); n != 0 {
		t.Errorf("%d pages leaked on disk", n)
	}
}

// TestWriteBackVictimNotReadableStale checks the frameWriting protocol: a
// fetch racing an in-flight dirty write-back must wait it out and then
// read the freshly written bytes, never the stale disk copy.
func TestWriteBackVictimNotReadableStale(t *testing.T) {
	var gate atomic.Bool
	inWrite := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	d := newFaultyDisk(sim.ServiceModel{Delay: func(int64) {
		if gate.Load() {
			once.Do(func() { close(inWrite) })
			<-release
		}
	}})
	victim := storage.MustAllocate(d)
	other := storage.MustAllocate(d)
	p := New(d, 1, core.NewSyncReplacer(2, core.Options{})) // one frame: every miss evicts

	pg, err := p.Fetch(victim)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg.Data(), []byte("fresh"))
	pg.Unpin(true) // dirty, evictable
	gate.Store(true)

	done := make(chan error, 1)
	go func() {
		// Evicts the dirty victim; its write-back parks on the gate.
		pg, err := p.Fetch(other)
		if err == nil {
			pg.Unpin(false)
		}
		done <- err
	}()
	<-inWrite // write-back in flight; victim is in frameWriting

	raced := make(chan error, 1)
	go func() {
		// Must block until the write-back completes, then re-read "fresh".
		pg, err := p.Fetch(victim)
		if err != nil {
			raced <- err
			return
		}
		defer pg.Unpin(false)
		if string(pg.Data()[:5]) != "fresh" {
			raced <- errors.New("fetch during write-back returned stale data")
			return
		}
		raced <- nil
	}()
	gate.Store(false)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-raced; err != nil && !errors.Is(err, ErrNoFreeFrame) {
		t.Fatal(err)
	}
}

// TestConfigValidation covers the constructor's shard checks.
func TestConfigValidation(t *testing.T) {
	d := newFaultyDisk(sim.ServiceModel{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-power-of-two shard count accepted")
			}
		}()
		NewWithConfig(d, 4, core.NewSyncReplacer(2, core.Options{}), Config{Shards: 3})
	}()
	if p := New(d, 4, core.NewSyncReplacer(2, core.Options{})); p.NumShards() < 1 {
		t.Error("NumShards not positive")
	}
}
