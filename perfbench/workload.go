package main

import (
	"fmt"
	"math/rand"
	"strings"

	"cjoin/internal/ssb"
)

// factRows sizes the SSB fact table of every workload: ~1.9k heap pages,
// so one scan cycle is tens of milliseconds on two cores and a run of a
// few seconds sees hundreds of cycles.
const factRows = 100_000

// workload is one traffic mix over one executor topology. The three mixes
// are chosen so that every mechanism of the served path is exercised by
// one workload and bypassed by another (see BENCHMARK.json):
//
//   - adhoc-scan: whole-range date windows, so zone maps prune nothing,
//     and fresh predicates, so the predicate cache misses; the shared
//     scan, Filters and aggregation do nearly all the work.
//   - dashboard: a small pool of narrow queries, so zone maps skip most
//     pages and the predicate cache hits; per-query overheads (parse,
//     admission, plane admit, slot turnover) dominate. It is a closed
//     loop: an open loop's millisecond latencies followed the host's
//     steal time on a 2-vCPU VM, 30-40% from run to run.
//   - htap: partial pruning beside a sustained writer on a two-shard
//     group, the only mix that runs commits, MVCC visibility and
//     internal/shard.
type workload struct {
	name string
	// inflight is how many queries the closed loop keeps in flight.
	inflight int
	shards   int
	// commitRate > 0 runs an open-loop writer at that many commits per
	// second beside the queries.
	commitRate float64
	// newQueries returns the workload's query generator over ds, seeded
	// so the stream is a function of the run's seed.
	newQueries func(ds *ssb.Dataset, rng *rand.Rand) func() string
}

// dashboardPool is the number of distinct dashboard queries. Their ~160
// (dimension, predicate) pairs slightly exceed the predicate cache's
// default 128 entries: most admissions hit (0.86-0.91 measured), and
// the cache still evicts.
const dashboardPool = 48

var workloads = map[string]workload{
	"adhoc-scan": {
		name:     "adhoc-scan",
		inflight: 32,
		shards:   1,
		newQueries: func(ds *ssb.Dataset, rng *rand.Rand) func() string {
			ts := ssb.Templates()
			return func() string {
				return instantiate(ds, ts[rng.Intn(len(ts))], 1, 0.1, rng)
			}
		},
	},
	"dashboard": {
		name:     "dashboard",
		inflight: 8,
		shards:   1,
		newQueries: func(ds *ssb.Dataset, rng *rand.Rand) func() string {
			ts := ssb.Templates()
			pool := make([]string, dashboardPool)
			for i := range pool {
				pool[i] = ds.Instantiate(ts[i%len(ts)], 0.01, rng)
			}
			return func() string { return pool[rng.Intn(len(pool))] }
		},
	},
	"htap": {
		name:       "htap",
		inflight:   32,
		shards:     2,
		commitRate: 500,
		newQueries: func(ds *ssb.Dataset, rng *rand.Rand) func() string {
			ts := ssb.Templates()
			return func() string { return ds.Instantiate(ts[rng.Intn(len(ts))], 0.05, rng) }
		},
	},
}

// instantiate renders template t like ssb.Dataset.Instantiate, but with
// selectivity dateSel on the date dimension and s on the others, drawn
// by rangePred. A date selectivity of 1 spans the whole calendar, which
// no zone map prunes.
func instantiate(ds *ssb.Dataset, t ssb.Template, dateSel, s float64, rng *rand.Rand) string {
	var conds []string
	for _, d := range t.Dims {
		conds = append(conds, joinPred[d])
	}
	for _, d := range t.Dims {
		sd := s
		if d == "date" {
			sd = dateSel
		}
		conds = append(conds, rangePred(ds, d, sd, rng))
	}
	var sb strings.Builder
	sb.WriteString("SELECT " + t.Aggs)
	for _, g := range t.GroupBy {
		sb.WriteString(", " + g)
	}
	sb.WriteString(" FROM lineorder, " + strings.Join(t.Dims, ", "))
	sb.WriteString(" WHERE " + strings.Join(conds, " AND "))
	if len(t.GroupBy) > 0 {
		g := strings.Join(t.GroupBy, ", ")
		sb.WriteString(" GROUP BY " + g + " ORDER BY " + g)
	}
	return sb.String()
}

var joinPred = map[string]string{
	"date":     "lo_orderdate = d_datekey",
	"customer": "lo_custkey = c_custkey",
	"supplier": "lo_suppkey = s_suppkey",
	"part":     "lo_partkey = p_partkey",
}

// rangePred selects a contiguous run of about a fraction s of the
// dimension's keys at a random offset. Like ad-hoc queries, predicates
// rarely repeat, so the predicate cache misses: the run's width varies
// from s/2 to 3s/2 of the keys, and a whole-calendar date range is
// widened by a random margin outside the calendar.
func rangePred(ds *ssb.Dataset, dim string, s float64, rng *rand.Rand) string {
	span := func(n int) (lo, k int) {
		mean := float64(n) * s
		k = int(mean/2 + rng.Float64()*mean + 0.5)
		k = max(1, min(k, n))
		return rng.Intn(n - k + 1), k
	}
	var col string
	var n int64
	switch dim {
	case "date":
		keys := ds.DateKeys
		if s >= 1 {
			return fmt.Sprintf("d_datekey BETWEEN %d AND %d",
				keys[0]-1-rng.Int63n(1<<20), keys[len(keys)-1]+1+rng.Int63n(1<<20))
		}
		lo, k := span(len(keys))
		return fmt.Sprintf("d_datekey BETWEEN %d AND %d", keys[lo], keys[lo+k-1])
	case "customer":
		col, n = "c_custkey", ds.NumCustomers
	case "supplier":
		col, n = "s_suppkey", ds.NumSuppliers
	case "part":
		col, n = "p_partkey", ds.NumParts
	default:
		panic("perfbench: unknown dimension " + dim)
	}
	lo, k := span(int(n))
	return fmt.Sprintf("%s BETWEEN %d AND %d", col, lo+1, lo+k)
}
