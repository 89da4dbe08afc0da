// Command perfbench is the repository benchmark. It drives the stack
// cjoind serves below HTTP, in process — query.ParseBind → admission.Queue
// → core.Pipeline or shard.Group over an SSB warehouse — under one of
// three workloads, checks sampled answers against internal/ref after the
// load has quiesced, and prints one JSON result line last:
//
//	go build -o perfbench . && ./perfbench --workload adhoc-scan --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced window.
// --trace 1 splits --seconds between an untraced window and a traced
// one (spans from the benchmark's own calls, a CPU profile) and reports
// the per-layer metrics; spans and profile are written under --out.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: adhoc-scan, dashboard or htap")
		seed    = flag.Int64("seed", 1, "seed of the dataset, the query stream and the writer")
		seconds = flag.Int("seconds", 10, "length of each timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced window")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload adhoc-scan|dashboard|htap, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	info      map[string]any
}

// printResult writes the run's parameters on one line and the result
// on the last.
func printResult(f *os.File, r *result) error {
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"perfbench": r.info}); err != nil {
		return err
	}
	return enc.Encode(r)
}

// runInfo is echoed with every result and trace file.
func runInfo(w workload, seed int64, d time.Duration, trace bool) map[string]any {
	return map[string]any{
		"workload": w.name,
		"seed":     seed,
		"seconds":  d.Seconds(),
		"trace":    trace,
		"params": map[string]any{
			"inflight": w.inflight, "shards": w.shards, "commit_rate": w.commitRate, "fact_rows": factRows,
			"maxconc": maxConc, "admit_batch": admitBatch, "warmup_queries": warmupQueries,
			"setup_repeats": setupRepeats, "check_sample": checkSampleMax,
		},
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
	}
}

func bench(w workload, seed int64, d time.Duration, trace bool, outDir string) (*result, error) {
	info := runInfo(w, seed, d, trace)

	// Set-up is repeated and its median reported: one set-up is too
	// short a sample to compare across runs.
	var setups []float64
	var e *env
	var dr *driver
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			e = nil
		}
		// Each set-up starts from a collected heap: collecting the one
		// before is not part of it.
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		if e, err = newEnv(w, seed); err != nil {
			return nil, err
		}
		dr = &driver{e: e}
		warm := dr.run(0, warmupQueries)
		dr.drain(warm)
		if n := warm.failures(); n > 0 {
			e.close()
			return nil, fmt.Errorf("warm-up: %d of %d queries failed: %v", n, warm.attempted, warm.failed)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// Return set-up's garbage to the OS, so that peak_mem_mb is the
	// footprint of serving alone.
	runtime.GC()
	debug.FreeOSMemory()
	dr.sample = &reservoir{k: checkSampleMax, rng: rand.New(rand.NewSource(seed + 3))}
	var wr *writer
	if w.commitRate > 0 {
		wr = &writer{ds: e.ds, rate: w.commitRate, rng: rand.New(rand.NewSource(seed + 2)), idBase: 1 << 40}
	}
	// A traced run splits its time between an untraced window and a
	// traced one, so trace.overhead_frac compares equal lengths.
	win := d
	if trace {
		win = max(time.Second, d/2)
	}
	first, err := measure(dr, wr, win, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	windows := []*measured{first}
	var layers map[string]metric
	var spans []span
	var prof []byte
	if trace {
		tr := &tracer{origin: time.Now()}
		second, err := measure(dr, wr, win, tr)
		if err != nil {
			e.close()
			return nil, err
		}
		windows = append(windows, second)
		shares, err := attribute(second.profile)
		if err != nil {
			e.close()
			return nil, err
		}
		layers = layerMetrics(second, tr, shares, first.qps())
		spans, prof = tr.spans, second.profile
	}

	// The load has quiesced once the queue drains and the executor
	// stops; only then is every sampled answer re-executed. The
	// reference executor's memory is not the program's: maxrss is read
	// before it runs.
	if err := e.close(); err != nil {
		return nil, err
	}
	maxRSS := maxRSSMB()
	info["maxrss_mb"] = maxRSS
	mismatches, err := dr.sample.check()
	if err != nil {
		return nil, err
	}
	sampled := len(dr.sample.got)
	correct := mismatches == 0 && sampled > 0
	info["check"] = map[string]int{"sampled": sampled, "mismatches": mismatches}

	res := &result{Correct: correct, info: info, Metrics: map[string]metric{}}
	failures := map[string]int64{}
	for _, m := range windows {
		res.Attempted += m.q.attempted
		res.Failed += m.q.failures()
		for k, v := range m.q.failed {
			failures["query."+k] += v
		}
		if m.wr != nil {
			res.Attempted += m.wr.attempted
			res.Failed += m.wr.failed
			failures["commit"] += m.wr.failed
		}
	}
	info["failures"] = failures
	lat := first.q.latencies
	p99, tail := chunkedTail(lat, 99)
	info["latency_samples"] = len(lat)
	info["query_tail_percentile"] = tail
	info["query_p99_ms_whole_window"] = tailOf(lat, 99)
	info["setup_s_each"] = setups

	if !correct {
		// A wrong answer voids the run: no numbers.
		return res, nil
	}
	if trace {
		res.Metrics = layers
		res.Metrics["check.sampled"] = metric{float64(sampled), "count"}
		res.Metrics["check.mismatches"] = metric{float64(mismatches), "count"}
		res.Metrics["go.maxrss_mb"] = metric{maxRSS, "MB"}
		if err := writeTrace(outDir, w, seed, info, spans, prof); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = map[string]metric{
			"setup_s":      {median(setups), "s"},
			"query_qps":    {medianRate(first.q.doneAt, first.q.start, win), "1/s"},
			"query_p50_ms": {median(lat), "ms"},
			"query_p99_ms": {p99, "ms"},
			"peak_mem_mb":  {float64(first.q.peakMem) / (1 << 20), "MB"},
		}
	}
	return res, nil
}

// measured is one timed window with the counters around it.
type measured struct {
	q             *window
	wr            *writes
	before, after counters
	profile       []byte // gzip pprof, traced windows only
}

func (m *measured) qps() float64 { return float64(m.q.completed) / m.q.elapsed.Seconds() }

// measure runs one timed window: the query driver on this goroutine and,
// for the htap workload, the writer on one more. A non-nil tracer also
// records spans and a CPU profile.
func measure(dr *driver, wr *writer, d time.Duration, tr *tracer) (*measured, error) {
	m := &measured{}
	var wtr *tracer
	var cpu bytes.Buffer
	if tr != nil {
		wtr = &tracer{origin: tr.origin}
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	dr.tr = tr
	m.before = dr.e.read()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if wr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.wr = wr.run(stop, wtr)
		}()
	}
	m.q = dr.run(d, 0)
	close(stop)
	wg.Wait()
	m.after = dr.e.read()
	if tr != nil {
		pprof.StopCPUProfile()
		m.profile = cpu.Bytes()
	}
	dr.drain(m.q)
	dr.tr = nil
	if wtr != nil {
		tr.spans = append(tr.spans, wtr.spans...)
	}
	if m.q.completed == 0 {
		return nil, errors.New("no query completed in the timed window")
	}
	return m, nil
}

// maxRSSMB is the process's peak resident set so far, set-up included.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeTrace writes the spans (one JSON object per line, after a header
// line echoing the run) and the CPU profile of a traced run.
func writeTrace(dir string, w workload, seed int64, info map[string]any, spans []span, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{"perfbench": info}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.WriteFile(base+".spans.jsonl", buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return fmt.Errorf("write cpu profile: %w", err)
	}
	return nil
}
