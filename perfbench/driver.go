package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"cjoin/internal/admission"
	"cjoin/internal/agg"
	"cjoin/internal/query"
	"cjoin/internal/ref"
	"cjoin/internal/server"
	"cjoin/internal/ssb"
)

// span is one traced interval, recorded by the benchmark around its own
// calls into a layer. Spans of one query (or commit) share ID; Start and
// End are nanoseconds since the run began.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory; a nil tracer records nothing.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(id int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// durations returns the lengths of the spans called name, in ns.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// pending is one query in flight.
type pending struct {
	t      *admission.Ticket
	id     int64
	parse  time.Time
	submit time.Time
}

// window is what the driver observed during one timed window.
type window struct {
	elapsed   time.Duration
	attempted int64
	// completed counts queries whose result passed decoding inside the
	// window; latencies and spans are theirs. The backlog drained after
	// the window counts for correctness and failures only: its collection
	// waits on the counter reads that close the window.
	completed int64
	failed    map[string]int64
	latencies []float64 // ms
	start     time.Time
	doneAt    []time.Time // completion times of latencies, in order
	backlog   int
	peakMem   uint64 // bytes, see memPeak
}

func (w *window) failures() int64 {
	var n int64
	for _, c := range w.failed {
		n += c
	}
	return n
}

// driver is the single goroutine that generates query load: a closed
// loop holding the workload's number of queries in flight. It submits
// through the asynchronous Ticket API and waits on the tickets' Done
// channels with one reflect.Select, so there is no goroutine per query
// on the load side. Latency runs from Submit until the result has
// passed server.DecodeResults.
type driver struct {
	e      *env
	seq    int64
	sample *reservoir // nil while warming up
	tr     *tracer    // nil when untraced
	// decoded counts decoded result rows, which keeps the decoding
	// observable.
	decoded int

	inflight []pending
	// cases[0] is the window's timer; cases[1+i] is inflight[i]'s Done
	// channel.
	cases []reflect.SelectCase
}

// run keeps the workload's queries in flight for d, or until stopAfter
// queries completed when d is 0 (warm-up), and leaves the backlog in
// flight for drain.
func (dr *driver) run(d time.Duration, stopAfter int64) *window {
	start := time.Now()
	win := &window{failed: map[string]int64{}, start: start}
	var endC <-chan time.Time
	if d > 0 {
		end := time.NewTimer(d)
		defer end.Stop()
		endC = end.C
	}
	dr.cases = []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(endC)}}
	mem := newMemPeak()
	for stopAfter <= 0 || win.completed < stopAfter {
		for n := len(dr.inflight); n < dr.e.w.inflight; n++ {
			dr.issue(win)
		}
		if len(dr.inflight) == 0 {
			break // every submission failed; there is nothing to wait for
		}
		chosen, _, _ := reflect.Select(dr.cases)
		if chosen == 0 {
			break
		}
		dr.finish(chosen-1, win, true)
		mem.sample()
	}
	win.elapsed = time.Since(start)
	win.backlog = len(dr.inflight)
	win.peakMem = mem.peak
	return win
}

// drain collects the backlog left by run. A query that cannot finish
// within the drain budget is canceled and counted failed.
func (dr *driver) drain(win *window) {
	giveUp := time.NewTimer(drainTimeout)
	defer giveUp.Stop()
	dr.cases[0] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(giveUp.C)}
	for len(dr.inflight) > 0 {
		chosen, _, _ := reflect.Select(dr.cases)
		if chosen == 0 {
			for _, p := range dr.inflight {
				p.t.Cancel()
			}
			giveUp.Reset(drainTimeout)
			continue
		}
		dr.finish(chosen-1, win, false)
	}
}

// issue parses, binds and submits one query. A refused submission is
// counted as attempted and failed; nothing is retried.
func (dr *driver) issue(win *window) {
	dr.seq++
	win.attempted++
	id := dr.seq
	parseStart := time.Now()
	b, err := query.ParseBind(dr.e.next(), dr.e.ds.Star)
	if err != nil {
		win.failed["parse"]++
		return
	}
	b.Snapshot = dr.e.ds.Txn.Begin()
	submit := time.Now()
	t, err := dr.e.queue.Submit(b)
	if err != nil {
		if errors.Is(err, admission.ErrQueueFull) {
			win.failed["rejected"]++
		} else {
			win.failed["submit"]++
		}
		return
	}
	dr.inflight = append(dr.inflight, pending{t: t, id: id, parse: parseStart, submit: submit})
	dr.cases = append(dr.cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(t.Done())})
}

// finish collects the terminal ticket inflight[i] and forgets it.
func (dr *driver) finish(i int, win *window, inWindow bool) {
	observed := time.Now()
	p := dr.inflight[i]
	last := len(dr.inflight) - 1
	dr.inflight[i], dr.cases[1+i] = dr.inflight[last], dr.cases[1+last]
	dr.inflight, dr.cases = dr.inflight[:last], dr.cases[:1+last]

	res := p.t.Wait()
	if res.Err != nil {
		win.failed[p.t.State().String()]++
		return
	}
	decStart := time.Now()
	dr.decoded += len(server.DecodeResults(p.t.Bound(), res.Rows))
	end := time.Now()
	if inWindow {
		win.doneAt = append(win.doneAt, end)
		win.completed++
		win.latencies = append(win.latencies, ms(end.Sub(p.submit)))
	}
	if dr.sample != nil {
		dr.sample.offer(p.t.Bound(), res.Rows)
	}
	if tr := dr.tr; tr != nil && inWindow {
		// Ticket.QueueWait runs from enqueue to admission and includes
		// the executor submit, which Handle.Submission times alone.
		qw := p.t.QueueWait()
		sub := p.t.Handle().Submission()
		admitted := p.submit.Add(qw)
		tr.add(p.id, "query", "", p.submit, end)
		tr.add(p.id, "parse_bind", "query", p.parse, p.submit)
		tr.add(p.id, "queue", "query", p.submit, admitted.Add(-sub))
		tr.add(p.id, "submit", "query", admitted.Add(-sub), admitted)
		tr.add(p.id, "execute", "query", admitted, observed)
		tr.add(p.id, "decode", "query", decStart, end)
	}
}

// appendBatch is the rows per append commit of the writer mix used by
// cjoin-bench -exp updates: 4-row appends alternate with 1-row deletes.
const appendBatch = 4

// writer is the open-loop commit generator of the htap workload. Its
// state carries across windows; results are per window.
type writer struct {
	ds        *ssb.Dataset
	rate      float64
	rng       *rand.Rand
	seq       int64
	delCursor int64
	idBase    int64 // commit span ids start here, clear of query ids
}

// writes is what the writer did during one window.
type writes struct {
	elapsed           time.Duration
	attempted, failed int64
	appended, deleted int64
	latencies         []float64 // ms, from the due time
	calls             []float64 // µs, the commit call alone
	lags              []float64 // ms
}

// run commits on schedule until stop closes. Only the writer goroutine
// touches wr and the returned writes until the caller has joined it.
func (wr *writer) run(stop <-chan struct{}, tr *tracer) *writes {
	out := &writes{}
	start := time.Now()
	sched := newSchedule(start, wr.rate)
	tick := time.NewTimer(0)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			out.elapsed = time.Since(start)
			return out
		case <-tick.C:
		}
		for {
			due, lag, ok := sched.take(time.Now())
			if !ok {
				break
			}
			out.lags = append(out.lags, ms(lag))
			wr.commit(due, out, tr)
		}
		tick.Reset(time.Until(sched.due()))
	}
}

func (wr *writer) commit(due time.Time, out *writes, tr *tracer) {
	wr.seq++
	out.attempted++
	call := time.Now()
	var err error
	if wr.seq%2 == 1 {
		_, err = wr.ds.AppendFact(appendBatch, wr.rng)
	} else {
		// Rows are deleted in order, so none is ever deleted twice.
		_, err = wr.ds.DeleteFact(wr.delCursor)
	}
	end := time.Now()
	if err != nil {
		out.failed++
		return
	}
	if wr.seq%2 == 1 {
		out.appended += appendBatch
	} else {
		wr.delCursor++
		out.deleted++
	}
	out.latencies = append(out.latencies, ms(end.Sub(due)))
	out.calls = append(out.calls, us(end.Sub(call)))
	tr.add(wr.idBase+wr.seq, "commit", "", call, end)
}

// reservoir keeps a uniform sample of at most k completed queries for
// the post-run reference check.
type reservoir struct {
	k    int
	seen int
	rng  *rand.Rand
	got  []checked
}

type checked struct {
	b    *query.Bound
	rows []agg.Result
}

func (r *reservoir) offer(b *query.Bound, rows []agg.Result) {
	r.seen++
	if len(r.got) < r.k {
		r.got = append(r.got, checked{b, rows})
		return
	}
	if j := r.rng.Intn(r.seen); j < r.k {
		r.got[j] = checked{b, rows}
	}
}

// check re-executes every sampled query through internal/ref at the
// query's own snapshot. It must run after the load has quiesced: the
// heap then holds every version any sampled snapshot can see.
func (r *reservoir) check() (mismatches int, err error) {
	for _, c := range r.got {
		want, err := ref.Execute(c.b)
		if err != nil {
			return mismatches, fmt.Errorf("reference execution: %w", err)
		}
		if !ref.ResultsEqual(c.rows, want) {
			mismatches++
		}
	}
	return mismatches, nil
}
