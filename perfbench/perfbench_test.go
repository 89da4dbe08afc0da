package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{999, 95},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if got := tailAtMost(99, 100000); got != 99 {
		t.Errorf("tailAtMost(99, 1e5) = %v: a supported percentile must not be raised", got)
	}
	if got := tailAtMost(99, 500); got != 95 {
		t.Errorf("tailAtMost(99, 500) = %v, want 95", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median(xs); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples must be NaN")
	}
}

func TestChunkedTailIgnoresOneBurst(t *testing.T) {
	// 10000 samples at 1 ms, 50 of them in one burst at 100 ms: the
	// burst would set a whole-sample p99.9, but it sits in one chunk of
	// ten, so the median chunk p99 is the steady 1 ms.
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 3000; i < 3050; i++ {
		xs[i] = 100
	}
	got, p := chunkedTail(xs, 99)
	if p != 99 || got != 1 {
		t.Errorf("chunkedTail = %v at p%v, want 1 at p99", got, p)
	}
	// Too few samples for two chunks: the plain supported tail.
	got, p = chunkedTail(xs[:500], 99)
	if p != 95 || got != 1 {
		t.Errorf("chunkedTail of 500 = %v at p%v, want 1 at p95", got, p)
	}
}

func TestMedianRate(t *testing.T) {
	start := time.Unix(0, 0)
	var times []time.Time
	// 100 events/s for 5 s, but second 2 stalls and gets only 10.
	for s := 0; s < 5; s++ {
		n := 100
		if s == 2 {
			n = 10
		}
		for i := 1; i <= n; i++ {
			times = append(times, start.Add(time.Duration(s)*time.Second+time.Duration(i)*time.Second/time.Duration(n)-time.Nanosecond))
		}
	}
	got := medianRate(times, start, 5*time.Second)
	if math.Abs(got-100) > 0.01 {
		t.Errorf("medianRate = %v, want 100", got)
	}
}

func TestScheduleChargesStallToLaterRequests(t *testing.T) {
	start := time.Unix(100, 0)
	s := newSchedule(start, 1000) // one request per ms
	if _, lag, ok := s.take(start); !ok || lag != 0 {
		t.Fatalf("first request: ok=%v lag=%v, want due now", ok, lag)
	}
	if _, _, ok := s.take(start.Add(500 * time.Microsecond)); ok {
		t.Fatal("second request issued before its due time")
	}
	// The generator stalls for 5 ms: every request due in the stall is
	// still issued, each charged with its own lateness, and latency
	// would be timed from each due time.
	now := start.Add(5 * time.Millisecond)
	var lags []time.Duration
	for {
		due, lag, ok := s.take(now)
		if !ok {
			break
		}
		if got := now.Sub(due); got != lag {
			t.Fatalf("lag %v != now - due %v", lag, got)
		}
		lags = append(lags, lag)
	}
	want := []time.Duration{4 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond, time.Millisecond, 0}
	if len(lags) != len(want) {
		t.Fatalf("issued %d requests after the stall, want %d: %v", len(lags), len(want), lags)
	}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("request %d lag %v, want %v", i+2, lags[i], want[i])
		}
	}
	if got := s.due(); !got.Equal(start.Add(6 * time.Millisecond)) {
		t.Errorf("next due %v, want start+6ms: the schedule must not shift after a stall", got.Sub(start))
	}
}

// pb is a minimal protobuf encoder for synthetic profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(field int, v uint64) {
	b.uvarint(uint64(field)<<3 | 0)
	b.uvarint(v)
}

func (b *pb) bytesField(field int, p []byte) {
	b.uvarint(uint64(field)<<3 | 2)
	b.uvarint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func packed(vs ...uint64) []byte {
	var b pb
	for _, v := range vs {
		b.uvarint(v)
	}
	return b.Bytes()
}

// synthProfile encodes a CPU profile whose samples have the given
// stacks (leaf first, one function per location unless a location
// lists several inlined ones) and cpu nanoseconds.
func synthProfile(t *testing.T, duration int64, samples []synthSample) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var p pb
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pb
		m.varint(1, str(vt[0]))
		m.varint(2, str(vt[1]))
		p.bytesField(1, m.Bytes())
	}
	funcs := map[string]uint64{}
	var locID uint64
	var locs, fns pb
	for si, s := range samples {
		var ids []uint64
		for _, loc := range s.stack {
			locID++
			var l pb
			l.varint(1, locID)
			for _, fn := range loc {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					var f pb
					f.varint(1, id)
					f.varint(2, str(fn))
					fns.bytesField(5, f.Bytes())
				}
				var line pb
				line.varint(1, id)
				l.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, l.Bytes())
			ids = append(ids, locID)
		}
		var m pb
		if si%2 == 0 {
			m.bytesField(1, packed(ids...))
			m.bytesField(2, packed(1, uint64(s.cpu)))
		} else {
			// Unpacked repeated fields, as encoders write short lists.
			for _, id := range ids {
				m.varint(1, id)
			}
			m.varint(2, 1)
			m.varint(2, uint64(s.cpu))
		}
		p.bytesField(2, m.Bytes())
	}
	p.Write(locs.Bytes())
	p.Write(fns.Bytes())
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	p.varint(10, uint64(duration))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

type synthSample struct {
	stack [][]string // locations leaf first; each lists inlined functions innermost first
	cpu   int64
}

func frames(fns ...string) [][]string {
	out := make([][]string, len(fns))
	for i, f := range fns {
		out[i] = []string{f}
	}
	return out
}

func TestAttributeRootFrameAndLeafPackage(t *testing.T) {
	const ms = int64(time.Millisecond)
	prof := synthProfile(t, 100*ms, []synthSample{
		{frames("cjoin/internal/storage.DecodeRows", "cjoin/internal/core.(*preprocessor).emitPage",
			"cjoin/internal/core.(*preprocessor).run", "cjoin/internal/core.(*Pipeline).Start.func1", "runtime.goexit"), 40 * ms},
		// An inlined leaf: the innermost function of the leaf location
		// decides the package.
		{[][]string{{"cjoin/internal/bitvec.And", "cjoin/internal/core.filterBatchWord"},
			{"cjoin/internal/core.(*Pipeline).startStage.func1"}, {"runtime.goexit"}}, 30 * ms},
		{frames("runtime.memmove", "cjoin/internal/core.(*distributor).run", "runtime.goexit"), 10 * ms},
		{frames("runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"), 10 * ms},
		{frames("cjoin/internal/sql.Parse", "main.(*driver).issue", "main.main", "runtime.main", "runtime.goexit"), 5 * ms},
		{frames("cjoin/internal/txn.(*Manager).Commit", "main.(*writer).run", "main.measure.func1", "runtime.goexit"), 3 * ms},
		{frames("cjoin/internal/dimplane.(*Plane).AdmitBatch", "cjoin/internal/admission.(*Queue).dispatch", "runtime.goexit"), 2 * ms},
	})
	c, err := attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	if c.busy != 100*ms || c.wall != 100*ms {
		t.Fatalf("busy %d wall %d, want 100ms each", c.busy, c.wall)
	}
	wantStage := map[string]int64{"preprocessor": 40 * ms, "filter": 30 * ms, "distributor": 10 * ms,
		"gc": 10 * ms, "driver": 5 * ms, "writer": 3 * ms, "dispatch": 2 * ms}
	for _, s := range stages {
		if c.stage[s] != wantStage[s] {
			t.Errorf("stage %s = %dms, want %dms", s, c.stage[s]/ms, wantStage[s]/ms)
		}
	}
	wantPkg := map[string]int64{"storage": 40 * ms, "bitvec": 30 * ms, "runtime": 20 * ms,
		"sql": 5 * ms, "txn": 3 * ms, "dimplane": 2 * ms}
	for _, p := range pkgs {
		if c.pkg[p] != wantPkg[p] {
			t.Errorf("package %s = %dms, want %dms", p, c.pkg[p]/ms, wantPkg[p]/ms)
		}
	}
}

func TestHistQuantileBetweenExports(t *testing.T) {
	before := `cjoin_scan_cycle_seconds_bucket{shard="0",le="0.01"} 10
cjoin_scan_cycle_seconds_bucket{shard="0",le="0.02"} 10
cjoin_scan_cycle_seconds_bucket{shard="0",le="+Inf"} 10
cjoin_scan_cycle_seconds_sum{shard="0"} 0.05
cjoin_scan_cycle_seconds_count{shard="0"} 10
`
	after := `cjoin_scan_cycle_seconds_bucket{shard="0",le="0.01"} 10
cjoin_scan_cycle_seconds_bucket{shard="0",le="0.02"} 20
cjoin_scan_cycle_seconds_bucket{shard="0",le="+Inf"} 20
cjoin_scan_cycle_seconds_sum{shard="0"} 0.2
cjoin_scan_cycle_seconds_count{shard="0"} 20
cjoin_scan_cycle_seconds_bucket{shard="1",le="0.01"} 0
cjoin_scan_cycle_seconds_bucket{shard="1",le="0.02"} 10
cjoin_scan_cycle_seconds_bucket{shard="1",le="+Inf"} 10
cjoin_scan_cycle_seconds_sum{shard="1"} 0.15
cjoin_scan_cycle_seconds_count{shard="1"} 10
`
	// Between the exports: 20 cycles, all in (0.01, 0.02].
	if got := histQuantile(before, after, "cjoin_scan_cycle_seconds", 0.5); math.Abs(got-0.015) > 1e-9 {
		t.Errorf("p50 = %v, want 0.015", got)
	}
	if got := histMean(before, after, "cjoin_scan_cycle_seconds"); math.Abs(got-0.015) > 1e-9 {
		t.Errorf("mean = %v, want 0.015", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload for one second with the reference check
// on, untraced and traced, and checks the output against every metric
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q the benchmark does not have", wl.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := bench(w, 7, time.Second, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			check := res.info["check"].(map[string]int)
			if !res.Correct || check["sampled"] == 0 || check["mismatches"] != 0 {
				t.Fatalf("%s trace=%v: correct=%v check=%v", w.name, trace, res.Correct, check)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
