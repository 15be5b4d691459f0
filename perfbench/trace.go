package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one recorded call into a layer: its boundary name, the
// operation it belongs to (-1 for set-up), its wall interval and the bytes
// the process allocated while it ran.
type span struct {
	name       string
	op         int
	start, end time.Time
	allocBytes uint64
}

// tracer records spans around the benchmark's calls into each layer. A nil
// tracer, or one that is not on, records nothing and adds no work, so the
// untraced path runs the same code.
//
// Allocation is read from the process-wide runtime counter, so a span's
// bytes are exact only when one goroutine drives the layers; the traced
// run therefore uses a single worker.
type tracer struct {
	mu    sync.Mutex
	on    bool
	spans []span

	prof     bytes.Buffer
	gcBefore runtime.MemStats
	gcAfter  runtime.MemStats
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// do runs fn as span name of operation op.
func (t *tracer) do(name string, op int, fn func() error) error {
	if !t.isOn() {
		return fn()
	}
	a0, t0 := heapAllocs(), time.Now()
	err := fn()
	t.record(span{name: name, op: op, start: t0, end: time.Now(), allocBytes: heapAllocs() - a0})
	return err
}

// record adds a span measured by the caller (spans whose interval is
// derived, such as http.transport).
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.on {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

func (t *tracer) isOn() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// startProfile begins the traced phase's CPU profile and GC accounting.
func (t *tracer) startProfile() error {
	runtime.ReadMemStats(&t.gcBefore)
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// stopProfile ends what startProfile began.
func (t *tracer) stopProfile() {
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&t.gcAfter)
}

// layerMetrics aggregates the recorded spans into <span>_<unit> (median
// wall time per call) and <span>_alloc_mb (mean bytes per call) for every
// span name, 0 for a layer the workload never crossed.
func (t *tracer) layerMetrics(out map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	durs := map[string][]float64{}
	allocs := map[string]uint64{}
	for _, s := range t.spans {
		d := s.end.Sub(s.start)
		if spanUnit(s.name) == "s" {
			durs[s.name] = append(durs[s.name], d.Seconds())
		} else {
			durs[s.name] = append(durs[s.name], float64(d)/float64(time.Millisecond))
		}
		allocs[s.name] += s.allocBytes
	}
	for _, name := range spanNames {
		v, mb := 0.0, 0.0
		if n := len(durs[name]); n > 0 {
			v = median(durs[name])
			mb = float64(allocs[name]) / float64(n) / (1 << 20)
		}
		out[name+"_"+spanUnit(name)] = v
		out[name+"_alloc_mb"] = mb
	}
	out["gc.cycles"] = float64(t.gcAfter.NumGC - t.gcBefore.NumGC)
	out["gc.pause_ms"] = float64(t.gcAfter.PauseTotalNs-t.gcBefore.PauseTotalNs) / 1e6
}
