// Package obs is the Monitor plane's measurement layer: a deterministic,
// sim-time-stamped span/event tracer and metrics registry threaded through
// the engine, the protocol stacks and the Prepare/Mockup/Control phases
// (CrystalNet §5 — the Monitor step of the emulation lifecycle; the
// convergence timelines behind Figures 8 and 9). See docs/OBSERVABILITY.md
// and DESIGN.md §7 "Monitor plane".
//
// Every timestamp is engine virtual time (nanoseconds since emulation
// start), never wall clock, so traces from two same-seed runs — or from a
// fresh run and a checkpoint/fork replay — are byte-identical.
//
// All Recorder methods are nil-safe: a nil *Recorder is the disabled
// tracer, and every call on it (including metric handles it vends) is a
// pointer check and nothing else. Hot paths cache *Counter handles at
// construction so the disabled cost stays at one predictable branch.
//
// A Recorder's spans and events are single-goroutine, like the engine
// that feeds them: each emulation (fresh or forked) owns its own
// recorder, and campaigns that run emulations in parallel give each run a
// private recorder and merge the results after the pool drains. Its
// metrics are safe for concurrent use, so the same registry also backs
// crystald's /metrics, fed by many HTTP handler goroutines.
package obs

import "sync"

// Attr is one key/value annotation on a span or event.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// SpanData is a completed span: a named interval of virtual time on a
// track. Spans are recorded in completion order, which is deterministic
// because the engine is.
type SpanData struct {
	Track string `json:"track"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// EventData is an instantaneous occurrence on a track.
type EventData struct {
	Track string `json:"track"`
	Name  string `json:"name"`
	At    int64  `json:"at_ns"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Recorder accumulates spans, events and metrics for one emulation. The
// zero value is usable; New is the conventional constructor. A nil
// *Recorder is the disabled tracer — every method no-ops.
type Recorder struct {
	now func() int64

	spans  []SpanData
	events []EventData

	mu       sync.Mutex // guards metric registration; handles update atomically
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	cIdx     map[metricKey]*Counter
	gIdx     map[metricKey]*Gauge
	hIdx     map[metricKey]*Histogram
}

// New returns an empty recorder with no clock bound. Engine.SetRecorder
// binds the virtual clock; until then timestamps read as 0.
func New() *Recorder { return &Recorder{} }

// SetClock binds the virtual-time source. The engine calls this from
// SetRecorder; tests may bind any monotone int64 source.
func (r *Recorder) SetClock(now func() int64) {
	if r == nil {
		return
	}
	r.now = now
}

func (r *Recorder) clock() int64 {
	if r.now == nil {
		return 0
	}
	return r.now()
}

// Span is an open interval handle returned by Start. It is a value, not a
// pointer: starting and ending a span allocates nothing beyond the
// recorded SpanData itself.
type Span struct {
	rec   *Recorder
	track string
	name  string
	start int64
}

// Start opens a span at the current virtual time. On a nil recorder it
// returns an inert handle whose End is a no-op.
func (r *Recorder) Start(track, name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{rec: r, track: track, name: name, start: r.clock()}
}

// End closes the span at the current virtual time and records it.
func (s Span) End(attrs ...Attr) {
	if s.rec == nil {
		return
	}
	s.rec.spans = append(s.rec.spans, SpanData{
		Track: s.track, Name: s.name,
		Start: s.start, End: s.rec.clock(),
		Attrs: attrs,
	})
}

// SpanAt records a completed span with explicit virtual timestamps. The
// core phases use this to reconstruct intervals post hoc (e.g. the
// network-ready window is only known once convergence is detected).
func (r *Recorder) SpanAt(track, name string, start, end int64, attrs ...Attr) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, SpanData{Track: track, Name: name, Start: start, End: end, Attrs: attrs})
}

// Event records an instantaneous occurrence at the current virtual time.
func (r *Recorder) Event(track, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.events = append(r.events, EventData{Track: track, Name: name, At: r.clock(), Attrs: attrs})
}

// EventAt records an event with an explicit virtual timestamp.
func (r *Recorder) EventAt(track, name string, at int64, attrs ...Attr) {
	if r == nil {
		return
	}
	r.events = append(r.events, EventData{Track: track, Name: name, At: at, Attrs: attrs})
}

// Spans returns the recorded spans in completion order. Callers must not
// mutate the slice.
func (r *Recorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	return r.spans
}

// Events returns the recorded events in record order. Callers must not
// mutate the slice.
func (r *Recorder) Events() []EventData {
	if r == nil {
		return nil
	}
	return r.events
}
