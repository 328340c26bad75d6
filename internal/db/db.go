// Package db assembles the storage substrates — simulated disk, buffer
// pool, heap file, B-tree — into the miniature database of the paper's
// Example 1.1: customer records referenced through a clustered B-tree
// index on CUST-ID. A lookup touches index pages root-to-leaf and then the
// record's data page, producing exactly the alternating I1, R1, I2, R2,
// ... reference pattern whose buffering behaviour motivates LRU-K.
package db

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/heapfile"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/storage/sim"
)

// ErrClosed reports an operation on a database after Close.
var ErrClosed = errors.New("db: database is closed")

// ErrNotFound reports a lookup or update of a customer id that is not in
// the index. It is typed so remote layers (internal/server) can map it to
// a wire status instead of string-matching.
var ErrNotFound = errors.New("db: customer not found")

// Config sizes the database instance.
type Config struct {
	// Frames is the buffer pool size in pages. The paper's Example 1.1
	// discussion centres on 101 frames (root + all leaf pages + 1).
	Frames int
	// K is the LRU-K history depth of the pool's replacer (1 = classical
	// LRU). Default 2.
	K int
	// ReplacerOptions are the §2.1 periods for the replacer.
	ReplacerOptions core.Options
	// RecordSize is the customer record size in bytes; the paper uses
	// 2000, packing two records per 4 KByte page. Default 2000.
	RecordSize int
	// Backend, when non-nil, is the storage backend the database runs on —
	// typically storage/file's durable store. The database wraps it in the
	// fault-injection and (with Obs) instrumentation stages itself and
	// closes it on Close. Nil selects a fresh simulated disk built from
	// DiskModel. A backend implementing storage.DurableBackend switches the
	// database into durable mode: a catalog page anchors the B-tree root so
	// the dataset survives restarts, FlushAll checkpoints, and acknowledged
	// updates reach the write-ahead log before UpdateCustomerCtx returns.
	Backend storage.Backend
	// DiskModel prices (and, via its Delay hook, optionally paces) the
	// simulated disk's operations when Backend is nil. The zero value
	// selects the simulator's defaults (a circa-1993 device, accounting
	// only).
	DiskModel sim.ServiceModel
	// PoolShards is the buffer pool's page-table latch partition count
	// (power of two; 0 selects the pool's GOMAXPROCS-scaled default).
	// Replacement decisions are unaffected — the replacer stays globally
	// ordered — so results remain deterministic at any shard count.
	PoolShards int
	// DiskFaults, when non-nil, arms the storage stack with a deterministic
	// fault-injection plan (storage.NewFaultPlan) so the database's failure
	// paths can be exercised reproducibly — against any backend, simulated
	// or durable. Production-shaped runs leave it nil. The plan can also be
	// swapped at runtime via SetDiskFaults.
	DiskFaults *storage.FaultPlan
	// DiskCorruption, when non-nil, arms the storage stack's corruption
	// injector (storage.NewCorruptPlan): matched writes taint their page
	// and later reads of it fail with storage.ErrCorrupt, exercising the
	// pool's detect/repair/quarantine protocol against any backend. The
	// plan can also be swapped at runtime via SetDiskCorruption.
	DiskCorruption *storage.CorruptPlan
	// ScrubInterval enables the pool's background integrity scrubber at
	// this cadence. Zero (the default) disables it.
	ScrubInterval time.Duration
	// DiskRetry tunes the pool's transient-fault retry for disk reads and
	// writes. The zero value disables retry (single attempt).
	DiskRetry bufferpool.RetryConfig
	// DiskBreaker tunes the pool's per-stripe disk circuit breaker. The
	// zero value disables it.
	DiskBreaker bufferpool.BreakerConfig
	// WriterInterval is the pool background writer's base park interval
	// between quarantine drain rounds. Zero selects the pool default.
	WriterInterval time.Duration
	// RecordCacheSize, when positive, puts an in-memory LRU-K record cache
	// in front of Lookup, sized in records. Zero (the default) disables it,
	// keeping every lookup on the paper's I, R page-reference pattern.
	RecordCacheSize int
	// RecordCacheJanitor, when positive, runs the record cache on a
	// wall-clock (the paper's §2.1.3 canonical CRP/RIP apply) and launches
	// its janitor at this interval; db.Close stops it. Requires
	// RecordCacheSize > 0.
	RecordCacheJanitor time.Duration
	// Obs, when non-nil, instruments the whole stack into this registry:
	// the pool's fetch/miss/coalesce/sweep histograms, the disk's
	// per-stripe read/write latency, the LRU-K policy's decision counters
	// and eviction trace, and scrape-time collectors over every counter
	// StatsSnapshot reports (see DESIGN.md §12 for the catalog). Nil (the
	// default) leaves every hot path uninstrumented.
	Obs *obs.Registry
	// EvictionTraceSize caps the policy decision trace ring (evictions,
	// CRP collapses, RIP purges). Zero selects 512. Only used when Obs is
	// set.
	EvictionTraceSize int
	// Spans, when non-nil, arms distributed-tracing span recording through
	// the stack: sampled operations leave pool_fetch / pool_miss /
	// pool_coalesce / retry_wait / breaker_reject spans from the pool and
	// disk_read / disk_write spans from the storage wrapper in this
	// recorder, and (with Obs set) evictions performed under a sampled
	// trace stamp the policy trace ring with the trace id. The unsampled
	// path stays within the pool's hit-latency budget. WAL spans
	// (wal_append, wal_fsync) come from the file backend's own
	// file.Config.Spans, which the caller wires when building the backend.
	Spans *obs.SpanRecorder
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 2
	}
	if c.RecordSize == 0 {
		c.RecordSize = 2000
	}
	return c
}

// catalogPage is the durable catalog's fixed page id: the first page a
// fresh durable database allocates, before the B-tree root. Its image
// anchors reopen: magic, root page id, customer count, and record size
// (see DESIGN.md §13). It stays zeroed — and the database unopenable —
// until the first checkpoint publishes it, so a crash before that point
// reports a deterministic error instead of serving a half-loaded dataset.
const catalogPage policy.PageID = 0

// catalogMagic marks a published catalog page.
var catalogMagic = [8]byte{'L', 'R', 'U', 'K', 'C', 'A', 'T', '1'}

// DB is the miniature customer database.
type DB struct {
	cfg       Config
	backend   storage.Backend        // outermost storage stack (metrics→faults→corruption→base); the pool I/Os through it
	faulty    *storage.Faulty        // fault-injection stage, for SetDiskFaults
	corrupter *storage.Corrupter     // corruption-injection stage, for SetDiskCorruption
	durable   storage.DurableBackend // non-nil when the base backend is durable
	attached  bool                   // durable reopen: dataset recovered from the catalog
	count     atomic.Int64           // loaded customer count (persisted in the catalog)
	pool      *bufferpool.Pool
	replacer  *core.SyncReplacer
	customers *heapfile.File
	index     *btree.Tree
	rids      map[int64]heapfile.RID // loader's check table, not an access path

	// evTrace is the policy decision ring (nil unless Config.Obs is set).
	evTrace *obs.EvictionTrace

	// recCache, when enabled, answers repeat Lookups without touching the
	// pool; janitorStop tears down its background sweeper.
	recCache    *core.Cache[int64, []byte]
	janitorStop func()

	// closed fences public operations after Close; closeMu serialises Close
	// itself and guards closeErr for idempotent replay.
	closed   atomic.Bool
	closeMu  sync.Mutex
	closeErr error
}

// Open creates an empty database.
func Open(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	if cfg.Frames <= 0 {
		return nil, fmt.Errorf("db: frame count must be positive, got %d", cfg.Frames)
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("db: K must be at least 1, got %d", cfg.K)
	}
	if cfg.RecordSize <= 8 || cfg.RecordSize > heapfile.MaxRecord {
		return nil, fmt.Errorf("db: record size %d outside (8, %d]", cfg.RecordSize, heapfile.MaxRecord)
	}
	if cfg.PoolShards < 0 || cfg.PoolShards&(cfg.PoolShards-1) != 0 {
		return nil, fmt.Errorf("db: pool shard count must be zero or a power of two, got %d", cfg.PoolShards)
	}
	if cfg.RecordCacheJanitor > 0 && cfg.RecordCacheSize <= 0 {
		return nil, fmt.Errorf("db: record cache janitor requires a record cache (RecordCacheSize > 0)")
	}
	// Assemble the storage stack: base backend (caller-supplied or a fresh
	// simulated disk) → corruption injection (innermost wrapper, so its
	// taints look like media damage under every other stage) → fault
	// injection → instrumentation (outermost, so injected faults are timed
	// like real ones). The pool adds the circuit breaker on top.
	base := cfg.Backend
	if base == nil {
		base = sim.New(cfg.DiskModel)
	}
	durable, _ := base.(storage.DurableBackend)
	corrupter := storage.WithCorruption(base)
	if cfg.DiskCorruption != nil {
		corrupter.SetCorruption(cfg.DiskCorruption)
	}
	faulty := storage.WithFaults(corrupter)
	if cfg.DiskFaults != nil {
		faulty.SetFaults(cfg.DiskFaults)
	}
	var backend storage.Backend = faulty
	repl := core.NewSyncReplacer(cfg.K, cfg.ReplacerOptions)
	var poolMetrics bufferpool.Metrics
	var evTrace *obs.EvictionTrace
	var corruptionHook func(policy.PageID, storage.CorruptKind, bool)
	var instrumented *storage.Instrumented
	if cfg.Obs != nil {
		// Latency instruments must exist before the pool and backend serve
		// their first operation; scrape-time collectors are registered
		// after assembly (registerObs below). The trace ring likewise: the
		// pool's corruption hook records into it from the first fetch on.
		poolMetrics = newPoolMetrics(cfg.Obs)
		instrumented = storage.WithMetrics(backend, newBackendMetrics(cfg.Obs, backend.NumStripes()))
		backend = instrumented
		size := cfg.EvictionTraceSize
		if size <= 0 {
			size = 512
		}
		evTrace = obs.NewEvictionTrace(size)
		corruptionHook = func(p policy.PageID, kind storage.CorruptKind, repaired bool) {
			rep := int64(0)
			if repaired {
				rep = 1
			}
			// Clock carries the corruption kind, KDist the repaired flag —
			// see obs.TraceCorrupt for the field convention.
			evTrace.Record(obs.TraceRecord{Kind: obs.TraceCorrupt, Page: int64(p), Clock: int64(kind), KDist: rep})
		}
	}
	var evictionStamp func(policy.PageID, uint64)
	if cfg.Spans != nil {
		// Span recording rides the same wrapper as latency metrics; without
		// Obs the wrapper carries spans alone (nil histograms keep the
		// metric side's fast path).
		if instrumented == nil {
			instrumented = storage.WithMetrics(backend, storage.Metrics{})
			backend = instrumented
		}
		instrumented.WithSpans(cfg.Spans)
		if evTrace != nil {
			stamped := evTrace
			evictionStamp = func(victim policy.PageID, traceID uint64) {
				stamped.StampTrace(int64(victim), traceID)
			}
		}
	}
	pool := bufferpool.NewWithConfig(backend, cfg.Frames, repl,
		bufferpool.Config{
			Shards:         cfg.PoolShards,
			Retry:          cfg.DiskRetry,
			Breaker:        cfg.DiskBreaker,
			WriterInterval: cfg.WriterInterval,
			Metrics:        poolMetrics,
			ScrubInterval:  cfg.ScrubInterval,
			CorruptionHook: corruptionHook,
			Spans:          cfg.Spans,
			EvictionStamp:  evictionStamp,
		})
	db := &DB{
		cfg:       cfg,
		backend:   backend,
		faulty:    faulty,
		corrupter: corrupter,
		durable:   durable,
		pool:      pool,
		replacer:  repl,
		evTrace:   evTrace,
		rids:      make(map[int64]heapfile.RID),
	}
	if durable != nil && durable.Recovery().Reopened {
		// Durable reopen: recovery has replayed the WAL; re-anchor the
		// dataset from the checkpointed catalog.
		if err := db.attach(); err != nil {
			return nil, err
		}
	} else {
		if durable != nil {
			// Fresh durable store: reserve the catalog page ahead of the
			// B-tree root. Its magic stays zeroed until the first
			// checkpoint publishes it.
			pg, err := pool.NewPage()
			if err != nil {
				return nil, fmt.Errorf("db: allocating catalog page: %w", err)
			}
			id := pg.ID()
			pg.Unpin(true)
			if id != catalogPage {
				return nil, fmt.Errorf("db: catalog page allocated as %d, want %d (backend not fresh?)", id, catalogPage)
			}
		}
		db.customers = heapfile.New(pool)
		idx, err := btree.New(pool)
		if err != nil {
			return nil, fmt.Errorf("db: creating index: %w", err)
		}
		db.index = idx
	}
	if cfg.RecordCacheSize > 0 {
		opts := core.CacheOptions{K: cfg.K}
		if cfg.RecordCacheSize < 16 {
			// The cache refuses fewer entries than shards; a small cache
			// runs unsharded (strict global LRU-K ordering).
			opts.Shards = 1
		}
		if cfg.RecordCacheJanitor > 0 {
			// Wall-clock cache with the paper's canonical §2.1.3 periods:
			// 5-second Correlated Reference Period, 200-second Retained
			// Information Period, in milliseconds.
			opts.Clock = func() policy.Tick { return policy.Tick(time.Now().UnixMilli()) }
			opts.CorrelatedReferencePeriod = 5_000
			opts.RetainedInformationPeriod = 200_000
		}
		rc, cerr := core.NewIntCache[[]byte](cfg.RecordCacheSize, opts)
		if cerr != nil {
			return nil, fmt.Errorf("db: creating record cache: %w", cerr)
		}
		db.recCache = rc
		if cfg.RecordCacheJanitor > 0 {
			stop, jerr := rc.StartJanitor(cfg.RecordCacheJanitor)
			if jerr != nil {
				return nil, fmt.Errorf("db: starting record cache janitor: %w", jerr)
			}
			db.janitorStop = stop
		}
	}
	if cfg.Obs != nil {
		// Registered after the record cache exists so its collectors are
		// included; the trace ring and hot-path histograms were armed
		// before the first I/O above.
		repl.SetTracer(policyTraceAdapter{trace: db.evTrace})
		db.registerObs(cfg.Obs)
	}
	pool.Start()
	return db, nil
}

// attach re-opens the dataset of a recovered durable backend: validate the
// catalog, re-attach the B-tree at the recorded root, and rebuild the heap
// file's page directory (and the loader's RID table) from one index leaf
// scan. Every page it touches flows through the pool, so recovery warms the
// buffer exactly like a cold workload would.
func (db *DB) attach() error {
	pg, err := db.pool.Fetch(catalogPage)
	if err != nil {
		return fmt.Errorf("db: reading catalog: %w", err)
	}
	data := pg.Data()
	var magic [8]byte
	copy(magic[:], data[:8])
	root := policy.PageID(binary.LittleEndian.Uint64(data[8:16]))
	count := int64(binary.LittleEndian.Uint64(data[16:24]))
	recSize := int(binary.LittleEndian.Uint64(data[24:32]))
	pg.Unpin(false)
	if magic != catalogMagic {
		return fmt.Errorf("db: catalog page has no valid checkpoint (magic %x) — the store crashed before its first FlushAll", magic)
	}
	if recSize != db.cfg.RecordSize {
		return fmt.Errorf("db: store was checkpointed with record size %d, configured %d", recSize, db.cfg.RecordSize)
	}
	idx, err := btree.Attach(db.pool, root)
	if err != nil {
		return fmt.Errorf("db: attaching index: %w", err)
	}
	if int64(idx.Len()) != count {
		return fmt.Errorf("db: catalog records %d customers, index holds %d", count, idx.Len())
	}
	// One leaf scan rebuilds the RID table and the heap page directory in
	// first-seen order (load order, since keys were loaded ascending).
	var heapPages []policy.PageID
	seen := make(map[policy.PageID]bool)
	if err := idx.ScanRange(math.MinInt64, math.MaxInt64, func(key int64, rid heapfile.RID) bool {
		db.rids[key] = rid
		if !seen[rid.Page] {
			seen[rid.Page] = true
			heapPages = append(heapPages, rid.Page)
		}
		return true
	}); err != nil {
		return fmt.Errorf("db: rebuilding record directory: %w", err)
	}
	file, err := heapfile.Attach(db.pool, heapPages)
	if err != nil {
		return fmt.Errorf("db: attaching heap file: %w", err)
	}
	db.index = idx
	db.customers = file
	db.count.Store(count)
	db.attached = true
	return nil
}

// writeCatalogCtx publishes the current dataset anchor (root, count, record
// size) into the catalog page. Called after FlushAll's sweep so the catalog
// a recovered store reads never points past pages the log has not seen.
func (db *DB) writeCatalogCtx(ctx context.Context) error {
	pg, err := db.pool.FetchCtx(ctx, catalogPage)
	if err != nil {
		return fmt.Errorf("db: writing catalog: %w", err)
	}
	data := pg.Data()
	copy(data[:8], catalogMagic[:])
	binary.LittleEndian.PutUint64(data[8:16], uint64(db.index.Root()))
	binary.LittleEndian.PutUint64(data[16:24], uint64(db.count.Load()))
	binary.LittleEndian.PutUint64(data[24:32], uint64(db.cfg.RecordSize))
	pg.Unpin(true)
	if err := db.pool.FlushPageCtx(ctx, catalogPage); err != nil {
		return fmt.Errorf("db: flushing catalog: %w", err)
	}
	return nil
}

// Close stops the database's background work (the pool's writer, the
// record cache janitor), flushes every dirty page, and fences further
// operations behind ErrClosed. It is idempotent: repeated calls return the
// first call's flush result without repeating the work.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed.Load() {
		return db.closeErr
	}
	db.closed.Store(true)
	if db.janitorStop != nil {
		db.janitorStop() // returns only after the janitor goroutine exits
		db.janitorStop = nil
	}
	db.closeErr = db.pool.Close()
	if cerr := db.backend.Close(); cerr != nil && db.closeErr == nil {
		db.closeErr = cerr
	}
	return db.closeErr
}

// Attached reports whether this instance re-opened an existing durable
// dataset (crash recovery path) rather than starting empty. Callers use it
// to skip the bulk load.
func (db *DB) Attached() bool { return db.attached }

// CustomerCount returns the number of customer records loaded (or, after a
// durable reopen, recovered from the catalog).
func (db *DB) CustomerCount() int { return int(db.count.Load()) }

// Recovery returns the durable backend's crash-recovery report; ok is
// false when the database runs on a non-durable (simulated) backend.
func (db *DB) Recovery() (storage.RecoveryInfo, bool) {
	if db.durable == nil {
		return storage.RecoveryInfo{}, false
	}
	return db.durable.Recovery(), true
}

// LoadCustomers bulk-loads n customer records keyed 0..n-1. Each record
// begins with its CUST-ID (8 bytes little-endian) followed by filler.
func (db *DB) LoadCustomers(n int) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if n <= 0 {
		return fmt.Errorf("db: customer count must be positive, got %d", n)
	}
	rec := make([]byte, db.cfg.RecordSize)
	for id := int64(0); id < int64(n); id++ {
		binary.LittleEndian.PutUint64(rec, uint64(id))
		rid, err := db.customers.Insert(rec)
		if err != nil {
			return fmt.Errorf("db: loading customer %d: %w", id, err)
		}
		if err := db.index.Insert(id, rid); err != nil {
			return fmt.Errorf("db: indexing customer %d: %w", id, err)
		}
		db.rids[id] = rid
	}
	db.count.Add(int64(n))
	return nil
}

// Lookup retrieves the customer record through the index — the I, R
// reference pair of Example 1.1. With a record cache configured, a cache
// hit answers from memory without touching the pool; either way the caller
// receives its own copy of the record.
func (db *DB) Lookup(custID int64) ([]byte, error) {
	return db.LookupCtx(context.Background(), custID)
}

// LookupCtx is Lookup charged against ctx: the index descent and the
// record-page fetch (coalesced waits, retry backoff included) observe the
// caller's deadline, so a server can bound a request end to end. A missing
// id reports ErrNotFound.
func (db *DB) LookupCtx(ctx context.Context, custID int64) ([]byte, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	if db.recCache != nil {
		if rec, ok := db.recCache.Get(custID); ok {
			out := make([]byte, len(rec))
			copy(out, rec)
			return out, nil
		}
	}
	rid, ok, err := db.index.GetCtx(ctx, custID)
	if err != nil {
		return nil, fmt.Errorf("db: lookup %d: %w", custID, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, custID)
	}
	rec, err := db.customers.GetCtx(ctx, rid)
	if err != nil {
		return nil, err
	}
	if db.recCache != nil {
		// Cache a private copy: the caller owns rec and may scribble on it.
		cp := make([]byte, len(rec))
		copy(cp, rec)
		db.recCache.Put(custID, cp)
	}
	return rec, nil
}

// UpdateCustomer overwrites the filler of a customer record in place (a
// TPC-A-style read-modify-write), producing the intra-transaction
// correlated reference pair of §2.1.1: the record page is referenced once
// by Lookup and again by the write.
func (db *DB) UpdateCustomer(custID int64, fill byte) error {
	return db.UpdateCustomerCtx(context.Background(), custID, fill)
}

// UpdateCustomerCtx is UpdateCustomer charged against ctx (see LookupCtx).
func (db *DB) UpdateCustomerCtx(ctx context.Context, custID int64, fill byte) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if db.recCache != nil {
		// Invalidate up front: even a failed update may have altered the
		// page, and a stale cached record would outlive it.
		db.recCache.Delete(custID)
	}
	rid, ok, err := db.index.GetCtx(ctx, custID)
	if err != nil {
		return fmt.Errorf("db: update %d: %w", custID, err)
	}
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, custID)
	}
	rec, err := db.customers.GetCtx(ctx, rid)
	if err != nil {
		return err
	}
	for i := 8; i < len(rec); i++ {
		rec[i] = fill
	}
	if db.durable != nil {
		// Durable acknowledgement: the record's page reaches the write-ahead
		// log before the update returns, so a crash after the caller sees
		// success cannot lose it.
		return db.customers.UpdateDurableCtx(ctx, rid, rec)
	}
	return db.customers.UpdateCtx(ctx, rid, rec)
}

// ScanCustomers sequentially scans the whole customer file (Example 1.2's
// batch scan) and returns the number of records seen.
func (db *DB) ScanCustomers() (int, error) {
	return db.ScanCustomersCtx(context.Background())
}

// ScanCustomersCtx is ScanCustomers charged against ctx: the sweep stops
// early when the deadline expires, reporting the context's error.
func (db *DB) ScanCustomersCtx(ctx context.Context) (int, error) {
	if db.closed.Load() {
		return 0, ErrClosed
	}
	n := 0
	err := db.customers.ScanCtx(ctx, func(heapfile.RID, []byte) bool {
		n++
		return true
	})
	return n, err
}

// SetDiskFaults replaces the storage stack's fault-injection plan at
// runtime; nil disarms injection. Operations already past their fault check
// complete normally.
func (db *DB) SetDiskFaults(p *storage.FaultPlan) { db.faulty.SetFaults(p) }

// SetDiskCorruption replaces the storage stack's corruption-injection plan
// at runtime; nil disarms injection (existing taints persist until
// overwritten, repaired, or deallocated).
func (db *DB) SetDiskCorruption(p *storage.CorruptPlan) { db.corrupter.SetCorruption(p) }

// DiskCorruptStats returns the corruption injector's ledger (all zero when
// no plan was ever armed).
func (db *DB) DiskCorruptStats() storage.CorruptStats { return db.corrupter.CorruptStats() }

// PoolPoisoned returns the page ids quarantined as unrepairable-corrupt.
func (db *DB) PoolPoisoned() []policy.PageID { return db.pool.PoisonedPages() }

// ScrubSweep runs one bounded integrity sweep through the pool (see
// bufferpool.Pool.ScrubSweep); operators and tests use it to scrub on
// demand when no background ScrubInterval is configured.
func (db *DB) ScrubSweep(ctx context.Context, limit int) int { return db.pool.ScrubSweep(ctx, limit) }

// FlushAll writes every dirty resident page back to disk, visiting every
// page even when some write-backs fail and returning the failures joined.
// On a durable backend a clean sweep is a checkpoint: the storage flush
// barrier runs, and the catalog page is (re)published afterwards so a
// recovered store reopens at exactly this dataset.
func (db *DB) FlushAll() error {
	return db.FlushAllCtx(context.Background())
}

// FlushAllCtx is FlushAll charged against ctx: write-backs and their retry
// backoff observe the deadline, and an expired context ends the sweep
// early.
func (db *DB) FlushAllCtx(ctx context.Context) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if err := db.pool.FlushAllCtx(ctx); err != nil {
		return err
	}
	if db.durable != nil {
		// Publish the catalog only after every page image the new anchor
		// depends on is in the log; a crash between the two leaves the
		// previous catalog governing, which update-in-place traffic keeps
		// consistent (DESIGN.md §13).
		return db.writeCatalogCtx(ctx)
	}
	return nil
}

// StatsSnapshot is a point-in-time aggregate of every counter the database
// exposes — pool, disk, record cache, quarantine, and page-directory sizes
// — in one JSON-serialisable struct. The network service serves it under
// the STATS op; it replaces stitching together three separate getters.
type StatsSnapshot struct {
	Pool         bufferpool.Stats `json:"pool"`
	PoolHitRatio float64          `json:"pool_hit_ratio"`
	// Quarantined is the number of pages whose most recent write-back
	// failed and that await the background writer's retry.
	Quarantined int `json:"quarantined"`
	// BreakerOpenStripes is how many disk stripes currently refuse I/O
	// with an open circuit (0 with the breaker disabled or healthy).
	BreakerOpenStripes int              `json:"breaker_open_stripes"`
	Policy             core.PolicyStats `json:"policy"`
	Disk               storage.Stats    `json:"disk"`
	// Corruption is the corruption injector's ledger — all zero in
	// production runs, where no plan is armed; the pool's own detection
	// and repair counters live in Pool.
	Corruption storage.CorruptStats `json:"corruption"`
	// PoisonedPages counts page ids quarantined as unrepairable-corrupt.
	PoisonedPages int             `json:"poisoned_pages"`
	RecordCache   core.CacheStats `json:"record_cache"`
	IndexPages    int             `json:"index_pages"`
	DataPages     int             `json:"data_pages"`
}

// StatsSnapshot collects the combined counter aggregate. The counters are
// read without a global pause, so under concurrency the snapshot is
// per-counter exact but not mutually atomic — fine for monitoring, which
// is its job. It remains readable after Close.
func (db *DB) StatsSnapshot() StatsSnapshot {
	s := db.pool.Stats()
	snap := StatsSnapshot{
		Pool:               s,
		PoolHitRatio:       s.HitRatio(),
		Quarantined:        db.pool.Quarantined(),
		BreakerOpenStripes: db.pool.BreakerOpenStripes(),
		Policy:             db.replacer.PolicyStats(),
		Disk:               db.backend.Stats(),
		Corruption:         db.corrupter.CorruptStats(),
		PoisonedPages:      len(db.pool.PoisonedPages()),
		RecordCache:        db.RecordCacheStats(),
		IndexPages:         len(db.index.Pages()),
		DataPages:          len(db.customers.Pages()),
	}
	return snap
}

// RecordCacheStats returns the record cache's counters; the zero value
// when no record cache is configured.
func (db *DB) RecordCacheStats() core.CacheStats {
	if db.recCache == nil {
		return core.CacheStats{}
	}
	return db.recCache.Stats()
}

// PoolQuarantined returns the number of pages whose most recent write-back
// failed and that await the background writer's retry.
func (db *DB) PoolQuarantined() int { return db.pool.Quarantined() }

// PoolStats returns the buffer-pool counters.
func (db *DB) PoolStats() bufferpool.Stats { return db.pool.Stats() }

// DiskStats returns the storage backend's counters (fault-injection stage
// included).
func (db *DB) DiskStats() storage.Stats { return db.backend.Stats() }

// IndexPages returns the number of index node pages.
func (db *DB) IndexPages() int { return len(db.index.Pages()) }

// DataPages returns the number of heap-file data pages.
func (db *DB) DataPages() int { return len(db.customers.Pages()) }

// IndexHeight returns the B-tree height.
func (db *DB) IndexHeight() (int, error) { return db.index.Height() }

// ResidentByClass counts resident pages per class, the quantity Example
// 1.1 reasons about ("50 B-tree leaf pages and 50 record pages" under
// LRU).
func (db *DB) ResidentByClass() (index, data int) {
	for _, p := range db.index.Pages() {
		if db.pool.Resident(p) {
			index++
		}
	}
	for _, p := range db.customers.Pages() {
		if db.pool.Resident(p) {
			data++
		}
	}
	return index, data
}

// Example11Result reports one run of the Example 1.1 workload.
type Example11Result struct {
	K             int
	Frames        int
	Lookups       int
	HitRatio      float64
	ResidentIndex int
	ResidentData  int
	DiskReads     uint64
	ServiceMicros int64
}

// RunExample11 executes the paper's Example 1.1 end to end: load
// customers, then perform random lookups through the index, and report
// how the pool's residency split between index and data pages. With K=1
// roughly half the frames end up holding data pages; with K=2 the index
// pages (each 100x more frequently referenced than any data page) win the
// frames.
func RunExample11(cfg Config, customers, lookups int, seed uint64) (Example11Result, error) {
	db, err := Open(cfg)
	if err != nil {
		return Example11Result{}, err
	}
	defer db.Close()
	if err := db.LoadCustomers(customers); err != nil {
		return Example11Result{}, err
	}
	// Measure from a cold-ish start: count only the lookup phase.
	preHits := db.PoolStats().Hits
	preMisses := db.PoolStats().Misses
	r := stats.NewRNG(seed)
	for i := 0; i < lookups; i++ {
		id := int64(r.Intn(customers))
		if _, err := db.Lookup(id); err != nil {
			return Example11Result{}, err
		}
	}
	s := db.PoolStats()
	hits := s.Hits - preHits
	misses := s.Misses - preMisses
	ri, rd := db.ResidentByClass()
	res := Example11Result{
		K:             db.cfg.K,
		Frames:        cfg.Frames,
		Lookups:       lookups,
		ResidentIndex: ri,
		ResidentData:  rd,
		DiskReads:     db.DiskStats().Reads,
		ServiceMicros: db.DiskStats().ServiceMicros,
	}
	if total := hits + misses; total > 0 {
		res.HitRatio = float64(hits) / float64(total)
	}
	return res, nil
}
