package db

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// scrape fetches /metrics over HTTP and parses every sample line into a
// map keyed `name` or `name{labels}`.
func scrape(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, perr := strconv.ParseFloat(line[idx+1:], 64)
		if perr != nil {
			t.Fatalf("malformed value in %q: %v", line, perr)
		}
		out[line[:idx]] = v
	}
	return out
}

// TestObsMetricsReconcileWithSnapshot runs a deterministic workload with the
// full observability stack armed, then asserts the /metrics exposition and
// db.StatsSnapshot agree exactly: both are views of the same atomics, so
// any divergence is a wiring bug.
func TestObsMetricsReconcileWithSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	database, err := Open(Config{
		Frames: 16,
		K:      2,
		ReplacerOptions: core.Options{
			CorrelatedReferencePeriod: 2,
			RetainedInformationPeriod: 100,
		},
		RecordCacheSize:   8,
		Obs:               reg,
		EvictionTraceSize: 1 << 20, // retain everything; kind counts must reconcile
	})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()

	if err := database.LoadCustomers(200); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	for i := 0; i < 500; i++ {
		id := int64(rng.Intn(200))
		if _, err := database.Lookup(id); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			if err := database.UpdateCustomer(id, byte(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := database.FlushAll(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	vals := scrape(t, srv)
	snap := database.StatsSnapshot()

	for name, want := range map[string]float64{
		"lruk_pool_hits_total":           float64(snap.Pool.Hits),
		"lruk_pool_misses_total":         float64(snap.Pool.Misses),
		"lruk_pool_coalesced_total":      float64(snap.Pool.Coalesced),
		"lruk_pool_evictions_total":      float64(snap.Pool.Evictions),
		"lruk_pool_write_backs_total":    float64(snap.Pool.WriteBacks),
		"lruk_pool_read_errors_total":    float64(snap.Pool.ReadErrors),
		"lruk_pool_write_errors_total":   float64(snap.Pool.WriteErrors),
		"lruk_pool_breaker_trips_total":  float64(snap.Pool.BreakerTrips),
		"lruk_pool_quarantined":          float64(snap.Quarantined),
		"lruk_pool_breaker_open_stripes": float64(snap.BreakerOpenStripes),
		"lruk_pool_hit_ratio":            snap.PoolHitRatio,
		"lruk_disk_reads_total":          float64(snap.Disk.Reads),
		"lruk_disk_writes_total":         float64(snap.Disk.Writes),
		"lruk_disk_allocated_total":      float64(snap.Disk.Allocated),
		"lruk_disk_service_micros_total": float64(snap.Disk.ServiceMicros),
		"lruk_policy_evictions_total":    float64(snap.Policy.Evictions),
		"lruk_policy_collapses_total":    float64(snap.Policy.Collapses),
		"lruk_policy_purges_total":       float64(snap.Policy.Purges),
		"lruk_policy_history_blocks":     float64(snap.Policy.HistoryBlocks),
		"lruk_policy_evictable":          float64(snap.Policy.Evictable),
		"lruk_record_cache_hits_total":   float64(snap.RecordCache.Hits),
		"lruk_record_cache_misses_total": float64(snap.RecordCache.Misses),
		"lruk_corrupt_detected_total":    float64(snap.Pool.CorruptDetected),
		"lruk_repair_success_total":      float64(snap.Pool.CorruptRepaired),
		"lruk_repair_failed_total":       float64(snap.Pool.CorruptQuarantined),
		"lruk_scrub_pages_total":         float64(snap.Pool.ScrubPages),
		"lruk_scrub_corrupt_total":       float64(snap.Pool.ScrubCorrupt),
		"lruk_pool_poisoned_pages":       float64(snap.PoisonedPages),
		// Every FetchCtx records exactly one observation; NewPage counts a
		// miss per allocation without running the fetch path, hence the
		// Allocated subtraction.
		"lruk_pool_fetch_seconds_count": float64(snap.Pool.Hits + snap.Pool.Misses - snap.Disk.Allocated),
	} {
		got, ok := vals[name]
		if !ok {
			t.Errorf("/metrics missing %s", name)
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, /metrics disagrees with StatsSnapshot %v", name, got, want)
		}
	}

	// The workload must actually have exercised the interesting paths, or
	// the equalities above are vacuous.
	if snap.Pool.Hits == 0 || snap.Pool.Misses == 0 || snap.Pool.Evictions == 0 {
		t.Fatalf("workload too tame: %+v", snap.Pool)
	}
	if snap.Policy.Collapses == 0 {
		t.Fatal("expected CRP collapses from the update read-modify-write pairs")
	}
	if snap.Policy.Purges == 0 {
		t.Fatal("expected RIP purges with RetainedInformationPeriod=100")
	}

	// Per-stripe disk histograms must sum to the disk ledger: every
	// successful read was timed into exactly one stripe's histogram.
	var readObs float64
	for name, v := range vals {
		if strings.HasPrefix(name, "lruk_disk_read_seconds_count{") {
			readObs += v
		}
	}
	if readObs != float64(snap.Disk.Reads) {
		t.Errorf("disk read histogram counts sum to %v, ledger says %d", readObs, snap.Disk.Reads)
	}

	// Eviction trace: nothing dropped (huge ring), so per-kind record
	// counts must equal the policy counters exactly.
	trace := database.EvictionTrace()
	kinds := map[obs.TraceKind]uint64{}
	var lastSeq uint64
	for _, rec := range trace {
		if rec.Seq <= lastSeq {
			t.Fatalf("trace sequence not strictly increasing at %+v", rec)
		}
		lastSeq = rec.Seq
		kinds[rec.Kind]++
	}
	if kinds[obs.TraceEvict] != snap.Policy.Evictions {
		t.Errorf("trace holds %d evict records, policy counted %d", kinds[obs.TraceEvict], snap.Policy.Evictions)
	}
	if kinds[obs.TraceCollapse] != snap.Policy.Collapses {
		t.Errorf("trace holds %d collapse records, policy counted %d", kinds[obs.TraceCollapse], snap.Policy.Collapses)
	}
	if kinds[obs.TracePurge] != snap.Policy.Purges {
		t.Errorf("trace holds %d purge records, policy counted %d", kinds[obs.TracePurge], snap.Policy.Purges)
	}
	// Every evict record must carry a plausible K-distance: infinite, or
	// positive and no larger than the clock at the decision.
	for _, rec := range trace {
		if rec.Kind != obs.TraceEvict {
			continue
		}
		if rec.KDist != obs.KDistInfinite && (rec.KDist <= 0 || rec.KDist > rec.Clock) {
			t.Fatalf("implausible K-distance in trace record %+v", rec)
		}
	}
}

// TestObsDisabledByDefault asserts an un-instrumented database records
// nothing and exposes no trace — the zero-cost default path.
func TestObsDisabledByDefault(t *testing.T) {
	database, err := Open(Config{Frames: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer database.Close()
	if err := database.LoadCustomers(10); err != nil {
		t.Fatal(err)
	}
	if _, err := database.Lookup(3); err != nil {
		t.Fatal(err)
	}
	if tr := database.EvictionTrace(); tr != nil {
		t.Fatalf("eviction trace must be nil without Config.Obs, got %d records", len(tr))
	}
}
