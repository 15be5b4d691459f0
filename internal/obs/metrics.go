package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Metrics are registered per (name, label): the name identifies the
// series ("bgp.msgs_out"), the label the instance (a device name). Handles
// are cached by callers at construction time so hot-path updates are a
// nil check plus an atomic add — and literally just the nil check when
// tracing is disabled, because a nil recorder vends nil handles.
//
// Metrics are safe for concurrent use: registration takes the recorder's
// lock and handle updates are atomic (histograms take their own small
// lock), so crystald's handler goroutines share one registry. The values
// passed in carry their own unit — virtual seconds from the engine, wall
// seconds from the HTTP middleware — so one handle set serves both.

type metricKey struct{ name, label string }

// Counter is a monotonically increasing integer series. A nil *Counter —
// vended by a nil recorder — absorbs updates for free.
type Counter struct {
	Name  string
	Label string
	n     atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Counter returns the counter registered under (name, label), creating it
// on first use. On a nil recorder it returns nil, which is itself a valid
// no-op counter.
func (r *Recorder) Counter(name, label string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, label}
	if c, ok := r.cIdx[k]; ok {
		return c
	}
	if r.cIdx == nil {
		r.cIdx = map[metricKey]*Counter{}
	}
	c := &Counter{Name: name, Label: label}
	r.cIdx[k] = c
	r.counters = append(r.counters, c)
	return c
}

// Gauge is a last-write-wins float series, stored as float64 bits.
type Gauge struct {
	Name  string
	Label string
	bits  atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the value by d (negative to decrement), so a gauge can
// track in-flight counts.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the last value set (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the gauge registered under (name, label), creating it on
// first use. Nil recorder → nil gauge, a valid no-op.
func (r *Recorder) Gauge(name, label string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, label}
	if g, ok := r.gIdx[k]; ok {
		return g
	}
	if r.gIdx == nil {
		r.gIdx = map[metricKey]*Gauge{}
	}
	g := &Gauge{Name: name, Label: label}
	r.gIdx[k] = g
	r.gauges = append(r.gauges, g)
	return g
}

// DefBuckets are the histogram bounds, in seconds: 1ms to ~2min in powers
// of four. They cover the spread between a single BGP UPDATE exchange and
// a full fabric convergence in virtual time, and between a warm fork and
// a cold convergence in crystald's wall-clock request latency.
var DefBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536, 131.072}

// Histogram accumulates observations into the DefBuckets buckets, plus
// exact count/sum/min/max. Every histogram shares the one bucket table,
// so two same-seed runs bucket identically.
type Histogram struct {
	Name   string
	Label  string
	mu     sync.Mutex
	bucket []uint64 // len(DefBuckets)+1; last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.observe(v, 1)
	}
}

// ObserveN records n identical observations in one update — the bulk form
// the traffic plane uses to account millions of modeled flows per settle
// without a per-flow loop. Equivalent to calling Observe(v) n times.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h != nil && n != 0 {
		h.observe(v, n)
	}
}

// observe is the locked update behind Observe and ObserveN, kept out of
// line so their nil checks inline into hot callers.
func (h *Histogram) observe(v float64, n uint64) {
	i := 0
	for i < len(DefBuckets) && v > DefBuckets[i] {
		i++
	}
	h.mu.Lock()
	h.bucket[i] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * float64(n)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// histState is a consistent copy of a histogram's accumulated values.
type histState struct {
	bucket        []uint64
	count         uint64
	sum, min, max float64
}

func (h *Histogram) state() histState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return histState{append([]uint64(nil), h.bucket...), h.count, h.sum, h.min, h.max}
}

// Histogram returns the histogram registered under (name, label) with
// DefBuckets bounds, creating it on first use. Nil recorder → nil
// histogram, a valid no-op.
func (r *Recorder) Histogram(name, label string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := metricKey{name, label}
	if h, ok := r.hIdx[k]; ok {
		return h
	}
	if r.hIdx == nil {
		r.hIdx = map[metricKey]*Histogram{}
	}
	h := &Histogram{Name: name, Label: label, bucket: make([]uint64, len(DefBuckets)+1)}
	r.hIdx[k] = h
	r.hists = append(r.hists, h)
	return h
}
