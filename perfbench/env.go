package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"strings"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/core"
	"cjoin/internal/obs"
	"cjoin/internal/shard"
	"cjoin/internal/ssb"
)

// The served path as cjoind configures it by default: 64 query slots,
// admission batches of 16, the default predicate cache, zone maps on,
// the default worker count, and one telemetry registry for everything.
// The device is unthrottled: the simulated disk sleeps, which would
// measure the cost model instead of the program.
const (
	maxConc       = 64
	admitBatch    = 16
	optimizeEvery = 100 * time.Millisecond
)

const (
	// warmupQueries complete in every set-up before anything is timed.
	warmupQueries = 256
	// setupRepeats set-ups run per run; setup_s is their median.
	setupRepeats = 5
	// checkSampleMax completed queries are re-executed by internal/ref.
	checkSampleMax = 24
	// drainTimeout bounds the wait for queries left at a window's end.
	drainTimeout = 60 * time.Second
)

// env is one built instance of the stack below HTTP: an SSB warehouse,
// its executor (a pipeline or a shard group) and the admission queue.
type env struct {
	w     workload
	ds    *ssb.Dataset
	exec  core.Executor
	group *shard.Group // nil on a single pipeline
	queue *admission.Queue
	reg   *obs.Registry
	next  func() string
}

func newEnv(w workload, seed int64) (*env, error) {
	ds, err := ssb.Generate(ssb.Config{SF: 1, FactRowsPerSF: factRows, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate SSB: %w", err)
	}
	e := &env{w: w, ds: ds, reg: obs.NewRegistry()}
	cfg := core.Config{MaxConcurrent: maxConc, OptimizeInterval: optimizeEvery}
	if w.shards > 1 {
		g, err := shard.New(ds.Star, shard.Config{Shards: w.shards, Core: cfg, Obs: e.reg})
		if err != nil {
			return nil, fmt.Errorf("shard group: %w", err)
		}
		g.Start()
		e.exec, e.group = g, g
	} else {
		cfg.Obs = e.reg
		p, err := core.NewPipeline(ds.Star, cfg)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		p.Start()
		e.exec = p
	}
	e.queue = admission.NewQueue(e.exec, admission.Config{BatchAdmit: admitBatch, Obs: e.reg})
	e.next = w.newQueries(ds, rand.New(rand.NewSource(seed+1)))
	return e, nil
}

// close drains the queue and stops the executor.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := e.queue.Close(ctx)
	e.exec.Stop()
	if err != nil {
		return fmt.Errorf("drain admission queue: %w", err)
	}
	return nil
}

// counters is one reading of everything the program exports about
// itself, taken before and after a timed window; per-layer metrics are
// the differences.
type counters struct {
	at     time.Time
	stats  core.Stats
	shards []core.Stats
	prom   string
	// allocBytes and gcCycles come from runtime/metrics.
	allocBytes, gcCycles uint64
}

func (e *env) read() counters {
	c := counters{at: time.Now()}
	if e.group != nil {
		c.stats, c.shards = e.group.StatsWithShards()
	} else {
		c.stats = e.exec.Stats()
		c.shards = []core.Stats{c.stats}
	}
	var sb strings.Builder
	_ = e.reg.WritePrometheus(&sb) // a strings.Builder write cannot fail
	c.prom = sb.String()
	ss := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(ss)
	c.allocBytes, c.gcCycles = ss[0].Value.Uint64(), ss[1].Value.Uint64()
	return c
}
