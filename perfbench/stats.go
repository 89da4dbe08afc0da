package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// minTail is how many samples a reported tail percentile must leave
// beyond it: a percentile resting on fewer is one or two outliers.
const minTail = 10

// tailPercentiles are the candidates for a latency tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// supportedTail returns the highest candidate percentile that leaves at
// least minTail of n samples beyond it, or 0 when even the median does
// not.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= minTail {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ceil(p/100 * n) computed so that exact products are not pushed over
// an integer by rounding.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailAtMost returns the percentile to report under the name of want:
// want itself when the sample supports it, else the highest candidate
// that it does support.
func tailAtMost(want float64, n int) float64 {
	if s := supportedTail(n); s < want {
		return s
	}
	return want
}

// percentile returns the p-th percentile (0..100) of xs by nearest rank
// on a sorted copy; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := min(max(rank(p, len(s)), 1), len(s))
	return s[r-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// maxChunks bounds how many pieces chunkedTail cuts a sample into.
const maxChunks = 15

// chunkedTail splits xs, in the order the samples were taken, into as
// many consecutive chunks of equal count (at most maxChunks) as still
// support the p-th percentile, and returns the median over chunks of
// each chunk's p-th percentile, and the percentile used. One burst of
// interference then moves one chunk's tail, not the reported figure.
// A sample too small for two chunks falls back to tailOf.
func chunkedTail(xs []float64, p float64) (float64, float64) {
	need := 1
	for need-rank(p, need) < minTail {
		need++
	}
	k := min(maxChunks, len(xs)/need)
	if k < 2 {
		used := tailAtMost(p, len(xs))
		return percentile(xs, used), used
	}
	n := len(xs)
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = percentile(xs[i*n/k:(i+1)*n/k], p)
	}
	return median(tails), p
}

// tailOf is the p-th percentile, or the highest lower one the sample
// supports with at least minTail values beyond it.
func tailOf(xs []float64, p float64) float64 {
	return percentile(xs, tailAtMost(p, len(xs)))
}

// medianRate cuts the window [start, start+d) into one-second slices
// and returns the median over slices of each slice's rate, so a second
// of interference does not decide the figure. A slice's rate is its
// events over the time from the last event before it to its own last
// event; times must be in increasing order.
func medianRate(times []time.Time, start time.Time, d time.Duration) float64 {
	slices := int(d / time.Second)
	if slices < 2 || len(times) == 0 {
		return float64(len(times)) / d.Seconds()
	}
	var rates []float64
	prev, i := start, 0
	for s := 1; s <= slices; s++ {
		end := start.Add(time.Duration(s) * time.Second)
		n := 0
		for ; i < len(times) && times[i].Before(end); i++ {
			n++
		}
		if n == 0 {
			rates = append(rates, 0)
			continue
		}
		last := times[i-1]
		rates = append(rates, float64(n)/last.Sub(prev).Seconds())
		prev = last
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// schedule is an open-loop arrival process: request i is due at
// start + i*interval whatever happened to request i-1, so a stall in
// the system or in the generator itself delays every later request and
// shows in their latency, which is timed from the due time.
type schedule struct {
	start    time.Time
	interval time.Duration
	next     int64
}

func newSchedule(start time.Time, perSecond float64) *schedule {
	return &schedule{start: start, interval: time.Duration(float64(time.Second) / perSecond)}
}

// due is the time the next request should be issued.
func (s *schedule) due() time.Time {
	return s.start.Add(time.Duration(s.next) * s.interval)
}

// take consumes the next request if it is due at now and returns its
// due time and how late it is being issued.
func (s *schedule) take(now time.Time) (due time.Time, lag time.Duration, ok bool) {
	due = s.due()
	if now.Before(due) {
		return time.Time{}, 0, false
	}
	s.next++
	return due, now.Sub(due), true
}

// memPeak tracks the peak of the memory the Go runtime holds from the
// operating system (mapped minus released to the OS), read at most every
// memEvery. getrusage's maxrss cannot be reset, so it would report the
// transient peak of dataset generation, which depends on where garbage
// collections happened to fall; this is the footprint while serving.
type memPeak struct {
	last time.Time
	ss   []metrics.Sample
	peak uint64
}

const memEvery = 10 * time.Millisecond

func newMemPeak() *memPeak {
	m := &memPeak{ss: []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}}
	m.read()
	return m
}

func (m *memPeak) sample() {
	if time.Since(m.last) >= memEvery {
		m.read()
	}
}

func (m *memPeak) read() {
	m.last = time.Now()
	metrics.Read(m.ss)
	m.peak = max(m.peak, m.ss[0].Value.Uint64()-m.ss[1].Value.Uint64())
}
