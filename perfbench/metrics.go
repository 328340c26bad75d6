package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// layerMetricUnits are the per-layer metrics a traced run reports, for
// every workload; a metric of an op the workload does not send reads 0.
var layerMetricUnits = []struct{ name, unit string }{
	{"wire.codec_ns_per_get", "ns"},
	{"wire.codec_ns_per_update", "ns"},
	{"server.overhead_us_get", "us"},
	{"server.overhead_us_update", "us"},
	{"server.queue_wait_us_p50", "us"},
	{"server.queue_wait_us_p99", "us"},
	{"server.shed_frac", "frac"},
	{"db.lookup_us_p50", "us"},
	{"db.lookup_us_p99", "us"},
	{"db.update_us_p50", "us"},
	{"db.update_us_p99", "us"},
	{"db.scan_ms_p50", "ms"},
	{"db.self_us_get", "us"},
	{"db.self_us_update", "us"},
	{"db.fetches_per_get", "fetches/op"},
	{"db.fetches_per_update", "fetches/op"},
	{"db.fetches_per_scan", "fetches/op"},
	{"bufferpool.hit_ratio", "frac"},
	{"bufferpool.misses_per_op", "1/op"},
	{"bufferpool.evictions_per_op", "1/op"},
	{"bufferpool.writebacks_per_op", "1/op"},
	{"bufferpool.coalesced_per_op", "1/op"},
	{"bufferpool.fetch_us_p50", "us"},
	{"bufferpool.fetch_us_p99", "us"},
	{"bufferpool.miss_us_p50", "us"},
	{"core.evictions_per_op", "1/op"},
	{"core.collapses_per_op", "1/op"},
	{"core.history_blocks", "count"},
	{"storage.read_us_p50", "us"},
	{"storage.read_us_p99", "us"},
	{"storage.write_us_p50", "us"},
	{"storage.write_us_p99", "us"},
	{"storage.reads_per_op", "1/op"},
	{"storage.writes_per_op", "1/op"},
	{"storage.wal_appends_per_sync", "count"},
	{"storage.wal_bytes_per_update", "B/B"},
	{"trace.overhead_frac", "frac"},
	{"gen.lag_ms_p99", "ms"},
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanDurations returns the sorted durations of the spans of layer l.
func spanDurations(spans []span, l layer) []int64 {
	var d []int64
	for _, s := range spans {
		if s.layer == l {
			d = append(d, s.dur())
		}
	}
	return sortedCopy(d)
}

// dbTimes is the direct pass's db time per op kind: total, self (minus
// storage children) and per storage layer, summed over the op's calls.
type dbTimes struct {
	calls   [numOps]int
	total   [numOps]int64
	self    [numOps]int64
	storage [numOps][numLayers]int64
}

func directTimes(spans []span) dbTimes {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.layer != layerDB && s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	var t dbTimes
	for _, s := range spans {
		if s.layer != layerDB {
			continue
		}
		kids := children[s.id]
		t.calls[s.op]++
		t.total[s.op] += s.dur()
		t.self[s.op] += selfTime(s, kids)
		for _, k := range kids {
			t.storage[s.op][k.layer] += k.dur()
		}
	}
	return t
}

// layerMetrics derives every per-layer metric of a traced run: base is the
// untraced wire run, wr the traced one (bracketed by counters c0 and c1),
// dr the direct pass.
func layerMetrics(base, wr, dr loadRun, c0, c1 counters, wireSpans, directSpans []span,
	fetches, codec [numOps]float64) map[string]metric {
	ops := float64(wr.t.ok())
	wire := [numOps]opStats{latencyOf(wr.t.lat[opGet]), latencyOf(wr.t.lat[opUpdate]), latencyOf(wr.t.lat[opScan])}
	direct := [numOps]opStats{latencyOf(dr.t.lat[opGet]), latencyOf(dr.t.lat[opUpdate]), latencyOf(dr.t.lat[opScan])}
	dt := directTimes(directSpans)
	p0, p1 := c0.db.Pool, c1.db.Pool
	pol0, pol1 := c0.db.Policy, c1.db.Policy
	d0, d1 := c0.db.Disk, c1.db.Disk
	queue := histDelta(c0.queue, c1.queue)
	fetch := histDelta(c0.fetch, c1.fetch)
	miss := histDelta(c0.miss, c1.miss)
	reads, writes := spanDurations(wireSpans, layerRead), spanDurations(wireSpans, layerWrite)
	getsPerSec := func(r loadRun) float64 { return ratio(float64(len(r.t.lat[opGet])), r.wall.Seconds()) }
	overhead := func(op opKind) float64 {
		if wire[op].n == 0 || direct[op].n == 0 {
			return 0
		}
		return finite(wire[op].p50-direct[op].p50) / 1e3
	}
	self := func(op opKind) float64 { return ratio(float64(dt.self[op]), float64(dt.calls[op])) / 1e3 }
	var lag float64
	if wr.lateness != nil {
		lag = percentile(sortedCopy(wr.lateness), 990) / 1e6
	}
	values := map[string]float64{
		"wire.codec_ns_per_get":        codec[opGet],
		"wire.codec_ns_per_update":     codec[opUpdate],
		"server.overhead_us_get":       overhead(opGet),
		"server.overhead_us_update":    overhead(opUpdate),
		"server.queue_wait_us_p50":     queue.Quantile(0.5) / 1e3,
		"server.queue_wait_us_p99":     queue.Quantile(0.99) / 1e3,
		"server.shed_frac":             ratio(float64(c1.srv.shed-c0.srv.shed), float64(c1.srv.requests-c0.srv.requests)),
		"db.lookup_us_p50":             finite(direct[opGet].p50 / 1e3),
		"db.lookup_us_p99":             finite(direct[opGet].p99 / 1e3),
		"db.update_us_p50":             finite(direct[opUpdate].p50 / 1e3),
		"db.update_us_p99":             finite(direct[opUpdate].p99 / 1e3),
		"db.scan_ms_p50":               finite(direct[opScan].p50 / 1e6),
		"db.self_us_get":               self(opGet),
		"db.self_us_update":            self(opUpdate),
		"db.fetches_per_get":           fetches[opGet],
		"db.fetches_per_update":        fetches[opUpdate],
		"db.fetches_per_scan":          fetches[opScan],
		"bufferpool.hit_ratio":         ratio(float64(p1.Hits-p0.Hits), float64(p1.Hits-p0.Hits+p1.Misses-p0.Misses)),
		"bufferpool.misses_per_op":     ratio(float64(p1.Misses-p0.Misses), ops),
		"bufferpool.evictions_per_op":  ratio(float64(p1.Evictions-p0.Evictions), ops),
		"bufferpool.writebacks_per_op": ratio(float64(p1.WriteBacks-p0.WriteBacks), ops),
		"bufferpool.coalesced_per_op":  ratio(float64(p1.Coalesced-p0.Coalesced), ops),
		"bufferpool.fetch_us_p50":      fetch.Quantile(0.5) / 1e3,
		"bufferpool.fetch_us_p99":      fetch.Quantile(0.99) / 1e3,
		"bufferpool.miss_us_p50":       miss.Quantile(0.5) / 1e3,
		"core.evictions_per_op":        ratio(float64(pol1.Evictions-pol0.Evictions), ops),
		"core.collapses_per_op":        ratio(float64(pol1.Collapses-pol0.Collapses), ops),
		"core.history_blocks":          float64(pol1.HistoryBlocks),
		"storage.read_us_p50":          percentile(reads, 500) / 1e3,
		"storage.read_us_p99":          percentile(reads, 990) / 1e3,
		"storage.write_us_p50":         percentile(writes, 500) / 1e3,
		"storage.write_us_p99":         percentile(writes, 990) / 1e3,
		"storage.reads_per_op":         ratio(float64(len(reads)), ops),
		"storage.writes_per_op":        ratio(float64(len(writes)), ops),
		"storage.wal_appends_per_sync": ratio(float64(d1.WALAppends-d0.WALAppends), float64(d1.WALSyncs-d0.WALSyncs)),
		"storage.wal_bytes_per_update": ratio(float64(d1.WALBytes-d0.WALBytes), float64(wire[opUpdate].n)*recordSize),
		"trace.overhead_frac":          1 - ratio(getsPerSec(wr), getsPerSec(base)),
		"gen.lag_ms_p99":               lag,
	}
	m := make(map[string]metric, len(layerMetricUnits))
	for _, lm := range layerMetricUnits {
		m[lm.name] = metric{values[lm.name], lm.unit}
	}
	return m
}

// printSelfTimes prints where a request's time goes, per op kind, in µs
// per request: the wire call, the part of it spent outside the db (client,
// codec, loopback and server, by subtraction), the db call, its self time,
// and its storage children.
func printSelfTimes(out io.Writer, wireSpans, directSpans []span) {
	dt := directTimes(directSpans)
	var wireTotal [numOps]int64
	var wireCalls [numOps]int
	for _, s := range wireSpans {
		if s.layer == layerWire {
			wireTotal[s.op] += s.dur()
			wireCalls[s.op]++
		}
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "op\tlayer\tcalls\tus/op\tself us/op\t")
	for op := opKind(0); op < numOps; op++ {
		if wireCalls[op] == 0 || dt.calls[op] == 0 {
			continue
		}
		wireMean := float64(wireTotal[op]) / float64(wireCalls[op]) / 1e3
		dbMean := float64(dt.total[op]) / float64(dt.calls[op]) / 1e3
		fmt.Fprintf(tw, "%s\twire call\t%d\t%.2f\t\t\n", opNames[op], wireCalls[op], wireMean)
		fmt.Fprintf(tw, "%s\tclient+wire+server\t\t\t%.2f\t\n", opNames[op], wireMean-dbMean)
		fmt.Fprintf(tw, "%s\tdb\t%d\t%.2f\t%.2f\t\n", opNames[op], dt.calls[op], dbMean,
			float64(dt.self[op])/float64(dt.calls[op])/1e3)
		for l := layerRead; l < numLayers; l++ {
			if v := dt.storage[op][l]; v > 0 {
				us := float64(v) / float64(dt.calls[op]) / 1e3
				fmt.Fprintf(tw, "%s\t%s\t\t%.2f\t%.2f\t\n", opNames[op], layerNames[l], us, us)
			}
		}
	}
	_ = tw.Flush()
}
