package db

import (
	"strconv"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/storage"
)

// This file is the observability assembly point: it is the only place that
// knows both the storage stack's internals and the obs registry, so the
// dependency arrows stay clean (core/storage/bufferpool never import each
// other's metrics, and core does not import obs at all — it talks through
// the PolicyTracer interface adapted below).
//
// Two registration styles, chosen per metric:
//
//   - Histograms are created up front and handed into the pool and the
//     backend's instrumentation wrapper, which record into them on the hot
//     path (nil histograms disable the timing entirely).
//   - Counters and gauges that already exist as atomics inside the stack
//     (pool shard counters, the backend ledger, replacer stats) are exposed
//     through CounterFunc/GaugeFunc collectors evaluated at scrape time —
//     zero added cost on the paths that maintain them.

// newPoolMetrics registers the pool's latency/shape histograms.
func newPoolMetrics(r *obs.Registry) bufferpool.Metrics {
	return bufferpool.Metrics{
		FetchLatency: r.LatencyHistogram("lruk_pool_fetch_seconds",
			"Buffer pool fetch latency, hits and misses alike.", nil),
		MissLatency: r.LatencyHistogram("lruk_pool_miss_seconds",
			"Latency of fetches that ran the miss protocol (frame obtention plus disk read).", nil),
		CoalesceWait: r.LatencyHistogram("lruk_pool_coalesce_wait_seconds",
			"Time coalesced fetches spent parked on another fetch's in-flight read.", nil),
		SweepLength: r.Histogram("lruk_pool_sweep_victims",
			"Victims examined per eviction sweep that consulted the replacer.", nil),
	}
}

// newBackendMetrics registers per-stripe read/write latency histograms for
// the storage instrumentation wrapper. Metric names keep the lruk_disk_
// prefix for dashboard continuity across backends.
func newBackendMetrics(r *obs.Registry, stripes int) storage.Metrics {
	m := storage.Metrics{
		ReadLatency:  make([]*obs.Histogram, stripes),
		WriteLatency: make([]*obs.Histogram, stripes),
	}
	for i := 0; i < stripes; i++ {
		lbl := obs.Labels{"stripe": strconv.Itoa(i)}
		m.ReadLatency[i] = r.LatencyHistogram("lruk_disk_read_seconds",
			"Storage read latency (latch waits, WAL appends, and injected delay included), by stripe.", lbl)
		m.WriteLatency[i] = r.LatencyHistogram("lruk_disk_write_seconds",
			"Storage write latency (latch waits, WAL appends, and injected delay included), by stripe.", lbl)
	}
	return m
}

// policyTraceAdapter bridges core.PolicyTracer onto the obs trace ring.
type policyTraceAdapter struct {
	trace *obs.EvictionTrace
}

func (a policyTraceAdapter) TraceEvict(p policy.PageID, clock, kdist policy.Tick, infinite bool) {
	kd := int64(kdist)
	if infinite {
		kd = obs.KDistInfinite
	}
	a.trace.Record(obs.TraceRecord{Kind: obs.TraceEvict, Page: int64(p), Clock: int64(clock), KDist: kd})
}

func (a policyTraceAdapter) TraceCollapse(p policy.PageID, clock policy.Tick) {
	a.trace.Record(obs.TraceRecord{Kind: obs.TraceCollapse, Page: int64(p), Clock: int64(clock)})
}

func (a policyTraceAdapter) TracePurge(p policy.PageID, clock policy.Tick) {
	a.trace.Record(obs.TraceRecord{Kind: obs.TracePurge, Page: int64(p), Clock: int64(clock)})
}

// registerObs installs the scrape-time collectors over every counter the
// database already maintains. Each collector re-reads its source at
// exposition, so /metrics and StatsSnapshot always agree (both are views
// of the same atomics).
func (db *DB) registerObs(r *obs.Registry) {
	pool := func(name, help string, read func(bufferpool.Stats) uint64) {
		r.CounterFunc(name, help, nil, func() float64 { return float64(read(db.pool.Stats())) })
	}
	pool("lruk_pool_hits_total", "Buffer pool page hits.",
		func(s bufferpool.Stats) uint64 { return s.Hits })
	pool("lruk_pool_misses_total", "Buffer pool page misses (coalesced and failed fetches included).",
		func(s bufferpool.Stats) uint64 { return s.Misses })
	pool("lruk_pool_coalesced_total", "Misses that joined another fetch's in-flight disk read.",
		func(s bufferpool.Stats) uint64 { return s.Coalesced })
	pool("lruk_pool_evictions_total", "Pages evicted from the pool.",
		func(s bufferpool.Stats) uint64 { return s.Evictions })
	pool("lruk_pool_write_backs_total", "Dirty pages written back to disk.",
		func(s bufferpool.Stats) uint64 { return s.WriteBacks })
	pool("lruk_pool_read_errors_total", "Miss reads failed after retries.",
		func(s bufferpool.Stats) uint64 { return s.ReadErrors })
	pool("lruk_pool_write_errors_total", "Dirty write-backs failed after retries.",
		func(s bufferpool.Stats) uint64 { return s.WriteErrors })
	pool("lruk_pool_read_retries_total", "Disk read attempts reissued by the retry ladder.",
		func(s bufferpool.Stats) uint64 { return s.ReadRetries })
	pool("lruk_pool_write_retries_total", "Disk write attempts reissued by the retry ladder.",
		func(s bufferpool.Stats) uint64 { return s.WriteRetries })
	pool("lruk_pool_reads_rejected_total", "Reads refused locally by an open circuit breaker.",
		func(s bufferpool.Stats) uint64 { return s.ReadsRejected })
	pool("lruk_pool_writes_rejected_total", "Write-backs refused locally by an open circuit breaker.",
		func(s bufferpool.Stats) uint64 { return s.WritesRejected })
	pool("lruk_pool_breaker_trips_total", "Circuit-breaker openings across all disk stripes.",
		func(s bufferpool.Stats) uint64 { return s.BreakerTrips })
	r.GaugeFunc("lruk_pool_hit_ratio", "Hits / (hits + misses).", nil,
		func() float64 { return db.pool.Stats().HitRatio() })
	r.GaugeFunc("lruk_pool_quarantined", "Resident pages awaiting a write-back retry.", nil,
		func() float64 { return float64(db.pool.Quarantined()) })
	r.GaugeFunc("lruk_pool_breaker_open_stripes", "Disk stripes with an open circuit.", nil,
		func() float64 { return float64(db.pool.BreakerOpenStripes()) })
	r.GaugeFunc("lruk_pool_frames", "Pool capacity in frames.", nil,
		func() float64 { return float64(db.pool.NumFrames()) })
	pool("lruk_corrupt_detected_total", "Corrupt page reads detected (client fetches and scrub sweeps).",
		func(s bufferpool.Stats) uint64 { return s.CorruptDetected })
	pool("lruk_repair_success_total", "Detected corruptions healed by read-repair.",
		func(s bufferpool.Stats) uint64 { return s.CorruptRepaired })
	pool("lruk_repair_failed_total", "Detected corruptions quarantined as unrepairable.",
		func(s bufferpool.Stats) uint64 { return s.CorruptQuarantined })
	pool("lruk_scrub_pages_total", "Pages verified clean by the background scrubber.",
		func(s bufferpool.Stats) uint64 { return s.ScrubPages })
	pool("lruk_scrub_corrupt_total", "Corruptions first detected by a scrub sweep.",
		func(s bufferpool.Stats) uint64 { return s.ScrubCorrupt })
	r.GaugeFunc("lruk_pool_poisoned_pages", "Page ids quarantined as unrepairable-corrupt.", nil,
		func() float64 { return float64(len(db.pool.PoisonedPages())) })

	dsk := func(name, help string, read func(storage.Stats) float64) {
		r.CounterFunc(name, help, nil, func() float64 { return read(db.backend.Stats()) })
	}
	dsk("lruk_disk_reads_total", "Successful storage page reads.",
		func(s storage.Stats) float64 { return float64(s.Reads) })
	dsk("lruk_disk_writes_total", "Successful storage page writes.",
		func(s storage.Stats) float64 { return float64(s.Writes) })
	dsk("lruk_disk_allocated_total", "Pages allocated.",
		func(s storage.Stats) float64 { return float64(s.Allocated) })
	dsk("lruk_disk_deallocated_total", "Pages deallocated.",
		func(s storage.Stats) float64 { return float64(s.Deallocated) })
	dsk("lruk_disk_read_faults_total", "Reads failed by the armed fault plan.",
		func(s storage.Stats) float64 { return float64(s.ReadFaults) })
	dsk("lruk_disk_write_faults_total", "Writes failed by the armed fault plan.",
		func(s storage.Stats) float64 { return float64(s.WriteFaults) })
	dsk("lruk_disk_service_micros_total", "Total simulated service time, microseconds.",
		func(s storage.Stats) float64 { return float64(s.ServiceMicros) })
	if db.durable != nil {
		dsk("lruk_wal_appends_total", "Write-ahead log records appended.",
			func(s storage.Stats) float64 { return float64(s.WALAppends) })
		dsk("lruk_wal_syncs_total", "Write-ahead log fsync batches (group commits).",
			func(s storage.Stats) float64 { return float64(s.WALSyncs) })
		dsk("lruk_checkpoints_total", "Durable-store checkpoints completed.",
			func(s storage.Stats) float64 { return float64(s.Checkpoints) })
		dsk("lruk_recovered_records_total", "WAL records replayed during crash recovery.",
			func(s storage.Stats) float64 { return float64(s.RecoveredRecords) })
		r.GaugeFunc("lruk_disk_wal_bytes", "Bytes appended to the write-ahead log since the last checkpoint.", nil,
			func() float64 { return float64(db.backend.Stats().WALBytes) })
	}

	pol := func(name, help string, read func(core.PolicyStats) float64) {
		r.CounterFunc(name, help, nil, func() float64 { return read(db.replacer.PolicyStats()) })
	}
	pol("lruk_policy_evictions_total", "LRU-K victim selections.",
		func(s core.PolicyStats) float64 { return float64(s.Evictions) })
	pol("lruk_policy_collapses_total", "References absorbed by the Correlated Reference Period.",
		func(s core.PolicyStats) float64 { return float64(s.Collapses) })
	pol("lruk_policy_purges_total", "History blocks dropped by the retention demon.",
		func(s core.PolicyStats) float64 { return float64(s.Purges) })
	r.GaugeFunc("lruk_policy_history_blocks", "HIST blocks held, resident plus retained.", nil,
		func() float64 { return float64(db.replacer.PolicyStats().HistoryBlocks) })
	r.GaugeFunc("lruk_policy_evictable", "Pages currently evictable (victim candidates).", nil,
		func() float64 { return float64(db.replacer.PolicyStats().Evictable) })
	r.CounterFunc("lruk_policy_trace_records_total",
		"Policy decisions recorded into the eviction trace ring.", nil,
		func() float64 { return float64(db.evTrace.Seq()) })

	if db.recCache != nil {
		rc := func(name, help string, read func(core.CacheStats) float64) {
			r.CounterFunc(name, help, nil, func() float64 { return read(db.recCache.Stats()) })
		}
		rc("lruk_record_cache_hits_total", "Record cache hits.",
			func(s core.CacheStats) float64 { return float64(s.Hits) })
		rc("lruk_record_cache_misses_total", "Record cache misses.",
			func(s core.CacheStats) float64 { return float64(s.Misses) })
		rc("lruk_record_cache_evictions_total", "Record cache evictions.",
			func(s core.CacheStats) float64 { return float64(s.Evictions) })
		rc("lruk_record_cache_rejected_total", "Record cache puts refused at capacity.",
			func(s core.CacheStats) float64 { return float64(s.Rejected) })
	}
}

// EvictionTrace returns the retained policy decision records, oldest first
// (nil when Config.Obs was not set). Exposed over the observability HTTP
// endpoint as /trace.
func (db *DB) EvictionTrace() []obs.TraceRecord {
	return db.evTrace.Snapshot()
}
