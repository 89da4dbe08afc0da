package main

import (
	"bufio"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cjoin/internal/core"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics derives every per-layer metric from one traced window,
// its spans and its CPU profile. Each is timed by the benchmark around a
// call into a layer, or read from counters the program already exports;
// a layer the workload does not reach reports 0.
func layerMetrics(t *measured, tr *tracer, cpu *cpuShares, untracedQPS float64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	secs := t.after.at.Sub(t.before.at).Seconds()
	b, a := t.before.stats, t.after.stats
	queries := float64(t.q.completed)

	// Driver. The query driver is a closed loop; the writer's lateness
	// is reported with the write path below.
	put("driver.backlog_end", float64(t.q.backlog), "count")
	put("trace.overhead_frac", ratio(untracedQPS-t.qps(), untracedQPS), "frac")
	attempted, failed := t.q.attempted, t.q.failures()
	if t.wr != nil {
		attempted += t.wr.attempted
		failed += t.wr.failed
	}
	put("failed_frac", ratio(float64(failed), float64(attempted)), "frac")

	// Spans from the benchmark's own calls into each layer.
	put("query.parse_bind_us_p50", median(tr.durations("parse_bind"))/1e3, "us")
	queue := tr.durations("queue")
	put("admission.queue_wait_ms_p50", median(queue)/1e6, "ms")
	put("admission.queue_wait_ms_p99", tailOf(queue, 99)/1e6, "ms")
	submit := tr.durations("submit")
	put("core.submit_ms_p50", median(submit)/1e6, "ms")
	put("core.submit_ms_p99", tailOf(submit, 99)/1e6, "ms")
	put("core.execute_ms_p50", median(tr.durations("execute"))/1e6, "ms")
	put("server.decode_us_p50", median(tr.durations("decode"))/1e3, "us")

	// Admission and the dimension plane, from Stats.
	admits := float64(a.DimAdmits - b.DimAdmits)
	batchQ := float64(a.PlaneBatchQueries - b.PlaneBatchQueries)
	rounds := float64(a.PlaneBatchAdmits-b.PlaneBatchAdmits) + admits - batchQ
	put("admission.batch_size_mean", ratio(admits, rounds), "queries")
	put("dimplane.admit_us_mean", ratio(float64(a.DimAdmitNanos-b.DimAdmitNanos)/1e3, admits), "us")
	hits := float64(a.PlaneCacheHits - b.PlaneCacheHits)
	put("dimplane.cache_hit_ratio", ratio(hits, hits+float64(a.PlaneCacheMisses-b.PlaneCacheMisses)), "frac")
	put("dimplane.publishes_per_query", ratio(float64(a.PlanePublishes-b.PlanePublishes), admits), "count")
	put("dimplane.peak_mb", float64(a.PlanePeakBytes)/(1<<20), "MB")

	// Scan, Filters and distributor.
	put("core.cycle_ms_p50", histQuantile(t.before.prom, t.after.prom, "cjoin_scan_cycle_seconds", 0.5)*1e3, "ms")
	put("core.pages_read_per_query", ratio(float64(a.PagesRead-b.PagesRead), queries), "pages")
	put("core.pages_skipped_per_query", ratio(float64(a.PagesSkippedZonemap-b.PagesSkippedZonemap), queries), "pages")
	scanned := float64(a.TuplesScanned - b.TuplesScanned)
	emitted := float64(a.TuplesEmitted - b.TuplesEmitted)
	put("core.tuples_scanned_per_s", scanned/secs, "1/s")
	put("core.emit_ratio", ratio(emitted, scanned), "frac")
	probes, drop := filterRates(a.Filters, a.FilterOrder)
	put("core.filter.probes_per_tuple", probes, "count")
	put("core.filter.drop_rate_first", drop, "frac")
	put("core.filter.batch_us_mean", histMean(t.before.prom, t.after.prom, "cjoin_filter_batch_seconds")*1e6, "us")

	// Shards: the busiest shard's pages over the idlest's.
	lo, hi := math.Inf(1), 0.0
	for i := range t.after.shards {
		pages := float64(t.after.shards[i].PagesRead - t.before.shards[i].PagesRead)
		lo, hi = math.Min(lo, pages), math.Max(hi, pages)
	}
	put("shard.page_skew", ratio(hi, lo), "ratio")

	// Write path (htap only).
	var w writes
	if t.wr != nil {
		w = *t.wr
	}
	put("driver.lag_p99_ms", tailOf(w.lags, 99), "ms")
	put("commit_p50_ms", median(w.latencies), "ms")
	put("commit_p99_ms", tailOf(w.latencies, 99), "ms")
	put("commits_per_s", ratio(float64(w.attempted-w.failed), w.elapsed.Seconds()), "1/s")
	put("txn.commit_call_us_p50", median(w.calls), "us")
	put("txn.commit_call_us_p99", tailOf(w.calls, 99), "us")
	put("txn.rows_appended", float64(w.appended), "count")
	put("txn.rows_deleted", float64(w.deleted), "count")

	// Go runtime.
	put("go.alloc_bytes_per_query", ratio(float64(t.after.allocBytes-t.before.allocBytes), queries), "B")
	put("go.gc_cycles_per_s", float64(t.after.gcCycles-t.before.gcCycles)/secs, "1/s")

	// CPU: stages as shares of the CPU capacity of the window, leaf
	// packages as shares of the CPU time sampled.
	capacity := float64(cpu.wall) * float64(runtime.GOMAXPROCS(0))
	for _, s := range stages {
		put("cpu.stage."+s+"_frac", ratio(float64(cpu.stage[s]), capacity), "frac")
	}
	put("cpu.idle_frac", math.Max(0, 1-ratio(float64(cpu.busy), capacity)), "frac")
	for _, p := range pkgs {
		put("cpu.pkg."+p+"_frac", ratio(float64(cpu.pkg[p]), float64(cpu.busy)), "frac")
	}
	return m
}

// filterRates reads the Filter statistics: probes per tuple entering
// the Filter sequence, and the drop rate of the first Filter in the
// optimizer's order. The pipeline halves these counters periodically so
// its optimizer follows the current mix (§3.4); they are therefore
// ratios over the recent past, not differences between two readings.
func filterRates(fs []core.FilterStats, order []string) (probesPerTuple, dropFirst float64) {
	if len(order) == 0 {
		return 0, 0
	}
	var probes float64
	for _, f := range fs {
		probes += float64(f.Probes)
	}
	for _, f := range fs {
		if f.Dimension == order[0] {
			return ratio(probes, float64(f.TuplesIn)), f.DropRate()
		}
	}
	return 0, 0
}

// bucket is one cumulative histogram bucket of the Prometheus export.
type bucket struct {
	le    float64
	count float64
}

// histBuckets sums the cumulative buckets of family name over every
// label set (every shard) in a Prometheus text export.
func histBuckets(prom, name string) []bucket {
	byLe := map[float64]float64{}
	sc := bufio.NewScanner(strings.NewReader(prom))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	prefix := name + "_bucket{"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		_, rest, ok := strings.Cut(line, `le="`)
		if !ok {
			continue
		}
		leStr, rest, _ := strings.Cut(rest, `"`)
		le, err := strconv.ParseFloat(leStr, 64) // "+Inf" parses to +Inf
		if err != nil {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(rest, "}")), 64)
		if err != nil {
			continue
		}
		byLe[le] += v
	}
	out := make([]bucket, 0, len(byLe))
	for le, c := range byLe {
		out = append(out, bucket{le, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// histQuantile estimates quantile q of the observations made between
// two exports, interpolating linearly inside the bucket holding it.
func histQuantile(before, after, name string, q float64) float64 {
	a, b := histBuckets(after, name), histBuckets(before, name)
	delta := make([]bucket, len(a))
	for i := range a {
		delta[i] = a[i]
		if i < len(b) && b[i].le == a[i].le {
			delta[i].count -= b[i].count
		}
	}
	if len(delta) == 0 || delta[len(delta)-1].count == 0 {
		return 0
	}
	target := q * delta[len(delta)-1].count
	prevLe, prevCount := 0.0, 0.0
	for _, bk := range delta {
		if bk.count >= target {
			if math.IsInf(bk.le, 1) {
				return prevLe
			}
			if bk.count == prevCount {
				return bk.le
			}
			return prevLe + (bk.le-prevLe)*(target-prevCount)/(bk.count-prevCount)
		}
		prevLe, prevCount = bk.le, bk.count
	}
	return prevLe
}

// histMean is the mean observation between two exports: Δsum / Δcount
// over every label set.
func histMean(before, after, name string) float64 {
	sum := func(prom, suffix string) float64 {
		var s float64
		sc := bufio.NewScanner(strings.NewReader(prom))
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, name+suffix) {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				s += v
			}
		}
		return s
	}
	return ratio(sum(after, "_sum")-sum(before, "_sum"), sum(after, "_count")-sum(before, "_count"))
}
