package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Exporters. All four outputs are deterministic: spans and events are
// emitted in their (deterministic) record order, metrics are sorted by
// (name, label), and maps never reach the encoder unsorted — so two
// same-seed runs produce byte-identical files. WriteJSON, WriteChrome and
// Summary export a trace; WriteProm renders the same metric registry for
// crystald's /metrics.

type counterJSON struct {
	Name  string `json:"name"`
	Label string `json:"label,omitempty"`
	Value uint64 `json:"value"`
}

type gaugeJSON struct {
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value"`
}

type histBucketJSON struct {
	LE string `json:"le"`
	N  uint64 `json:"n"`
}

type histJSON struct {
	Name    string           `json:"name"`
	Label   string           `json:"label,omitempty"`
	Count   uint64           `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Buckets []histBucketJSON `json:"buckets"`
}

type traceJSON struct {
	Spans      []SpanData    `json:"spans"`
	Events     []EventData   `json:"events,omitempty"`
	Counters   []counterJSON `json:"counters,omitempty"`
	Gauges     []gaugeJSON   `json:"gauges,omitempty"`
	Histograms []histJSON    `json:"histograms,omitempty"`
}

func (r *Recorder) sortedCounters() []*Counter {
	r.mu.Lock()
	cs := append([]*Counter(nil), r.counters...)
	r.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Name != cs[j].Name {
			return cs[i].Name < cs[j].Name
		}
		return cs[i].Label < cs[j].Label
	})
	return cs
}

func (r *Recorder) sortedGauges() []*Gauge {
	r.mu.Lock()
	gs := append([]*Gauge(nil), r.gauges...)
	r.mu.Unlock()
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Name != gs[j].Name {
			return gs[i].Name < gs[j].Name
		}
		return gs[i].Label < gs[j].Label
	})
	return gs
}

func (r *Recorder) sortedHists() []*Histogram {
	r.mu.Lock()
	hs := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Name != hs[j].Name {
			return hs[i].Name < hs[j].Name
		}
		return hs[i].Label < hs[j].Label
	})
	return hs
}

// bucketLE is the exported upper bound of histogram bucket i: a
// DefBuckets bound, or "+Inf" for the overflow bucket.
func bucketLE(i int) string {
	if i < len(DefBuckets) {
		return fmt.Sprintf("%g", DefBuckets[i])
	}
	return "+Inf"
}

// WriteJSON writes the native trace file: spans and events in record
// order, metrics sorted by (name, label). Schema documented in
// docs/OBSERVABILITY.md.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"spans\":[]}\n")
		return err
	}
	out := traceJSON{Spans: r.spans, Events: r.events}
	if out.Spans == nil {
		out.Spans = []SpanData{}
	}
	for _, c := range r.sortedCounters() {
		out.Counters = append(out.Counters, counterJSON{c.Name, c.Label, c.Value()})
	}
	for _, g := range r.sortedGauges() {
		out.Gauges = append(out.Gauges, gaugeJSON{g.Name, g.Label, g.Value()})
	}
	for _, h := range r.sortedHists() {
		st := h.state()
		hj := histJSON{Name: h.Name, Label: h.Label, Count: st.count, Sum: st.sum, Min: st.min, Max: st.max}
		for i, n := range st.bucket {
			hj.Buckets = append(hj.Buckets, histBucketJSON{bucketLE(i), n})
		}
		out.Histograms = append(out.Histograms, hj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteProm renders every registered metric in the Prometheus text
// exposition format (version 0.0.4): counters, then gauges, then
// histograms, each sorted by (name, label), so scrapes are stable.
// Dotted names become underscored ("http.requests" → "http_requests") and
// a non-empty label renders as label="...". A nil recorder writes nothing.
func (r *Recorder) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	last := "" // "<family> <type>" of the last # TYPE line written
	family := func(name, kind string) string {
		pn := promName(name)
		if pn+" "+kind != last {
			last = pn + " " + kind
			fmt.Fprintf(&b, "# TYPE %s %s\n", pn, kind)
		}
		return pn
	}
	for _, c := range r.sortedCounters() {
		pn := family(c.Name, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", pn, promLabels(c.Label, ""), c.Value())
	}
	for _, g := range r.sortedGauges() {
		pn := family(g.Name, "gauge")
		fmt.Fprintf(&b, "%s%s %g\n", pn, promLabels(g.Label, ""), g.Value())
	}
	for _, h := range r.sortedHists() {
		pn := family(h.Name, "histogram")
		st := h.state()
		var cum uint64
		for i, n := range st.bucket {
			cum += n
			fmt.Fprintf(&b, "%s_bucket%s %d\n", pn, promLabels(h.Label, fmt.Sprintf("le=%q", bucketLE(i))), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %g\n%s_count%s %d\n",
			pn, promLabels(h.Label, ""), st.sum, pn, promLabels(h.Label, ""), st.count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName sanitizes a dotted series name into the Prometheus exposition
// charset ("http.requests" → "http_requests").
func promName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, name)
}

// promLabels renders a series' label set: the metric label (if any) as
// label="...", then extra (a preformatted pair such as le="0.5").
func promLabels(label, extra string) string {
	parts := make([]string, 0, 2)
	if label != "" {
		parts = append(parts, fmt.Sprintf("label=%q", label))
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Part names one recorder inside a merged Chrome trace; each part becomes
// a Perfetto "process" so multi-run campaigns view side by side.
type Part struct {
	Name string
	Rec  *Recorder
}

type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes this recorder as a Chrome trace_event file that
// opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return WriteChrome(w, Part{Name: "run", Rec: r})
}

// WriteChrome merges one or more recorders into a single Chrome
// trace_event file: each part is a process (pid = position, in order),
// each track within it a named thread. Timestamps are virtual
// microseconds. Nil recorders contribute only their process banner, so a
// campaign with tracing half-enabled still lines pids up with run order.
func WriteChrome(w io.Writer, parts ...Part) error {
	out := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for pi, part := range parts {
		pid := pi + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]string{"name": part.Name},
		})
		r := part.Rec
		if r == nil {
			continue
		}
		// Tracks map to tids in sorted-name order so the mapping does not
		// depend on which track happened to record first.
		trackSet := map[string]bool{}
		for i := range r.spans {
			trackSet[r.spans[i].Track] = true
		}
		for i := range r.events {
			trackSet[r.events[i].Track] = true
		}
		tracks := make([]string, 0, len(trackSet))
		for t := range trackSet {
			tracks = append(tracks, t)
		}
		sort.Strings(tracks)
		tid := map[string]int{}
		for i, t := range tracks {
			tid[t] = i + 1
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: i + 1,
				Args: map[string]string{"name": t},
			})
		}
		for i := range r.spans {
			sp := &r.spans[i]
			dur := float64(sp.End-sp.Start) / 1e3
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: sp.Name, Cat: sp.Track, Ph: "X",
				TS: float64(sp.Start) / 1e3, Dur: &dur,
				PID: pid, TID: tid[sp.Track], Args: attrMap(sp.Attrs),
			})
		}
		for i := range r.events {
			ev := &r.events[i]
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: ev.Name, Cat: ev.Track, Ph: "i",
				TS: float64(ev.At) / 1e3, S: "t",
				PID: pid, TID: tid[ev.Track], Args: attrMap(ev.Attrs),
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.K] = a.V
	}
	return m
}

// Summary renders a human-readable rollup: the phase timeline, per-track
// span statistics with the slowest instances, counter totals grouped by
// series name, and histogram digests. Deterministic like the file
// exporters.
func (r *Recorder) Summary() string {
	if r == nil {
		return "trace: disabled (nil recorder)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d spans, %d events (virtual time)\n", len(r.spans), len(r.events))

	// Phase timeline, in record order (phases record in lifecycle order).
	var phases []SpanData
	byTrack := map[string][]SpanData{}
	for _, sp := range r.spans {
		if sp.Track == "phase" {
			phases = append(phases, sp)
		} else {
			byTrack[sp.Track] = append(byTrack[sp.Track], sp)
		}
	}
	if len(phases) > 0 {
		b.WriteString("phases:\n")
		for _, sp := range phases {
			fmt.Fprintf(&b, "  %-16s %12s  (at %s)\n", sp.Name,
				time.Duration(sp.End-sp.Start).Round(time.Millisecond),
				time.Duration(sp.Start).Round(time.Millisecond))
		}
	}

	tracks := make([]string, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	for _, t := range tracks {
		spans := byTrack[t]
		var sum, max int64
		min := spans[0].End - spans[0].Start
		for _, sp := range spans {
			d := sp.End - sp.Start
			sum += d
			if d > max {
				max = d
			}
			if d < min {
				min = d
			}
		}
		fmt.Fprintf(&b, "%s: %d spans, min %s avg %s max %s\n", t, len(spans),
			time.Duration(min).Round(time.Millisecond),
			time.Duration(sum/int64(len(spans))).Round(time.Millisecond),
			time.Duration(max).Round(time.Millisecond))
		slow := append([]SpanData(nil), spans...)
		sort.SliceStable(slow, func(i, j int) bool {
			return slow[i].End-slow[i].Start > slow[j].End-slow[j].Start
		})
		n := len(slow)
		if n > 5 {
			n = 5
		}
		for _, sp := range slow[:n] {
			fmt.Fprintf(&b, "  slowest  %-24s %12s\n", sp.Name,
				time.Duration(sp.End-sp.Start).Round(time.Millisecond))
		}
	}

	// Counter totals grouped by series name, labels counted.
	if counters := r.sortedCounters(); len(counters) > 0 {
		type agg struct {
			total  uint64
			labels int
		}
		totals := map[string]*agg{}
		for _, c := range counters {
			a := totals[c.Name]
			if a == nil {
				a = &agg{}
				totals[c.Name] = a
			}
			a.total += c.Value()
			a.labels++
		}
		names := make([]string, 0, len(totals))
		for n := range totals {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString("counters:\n")
		for _, n := range names {
			a := totals[n]
			fmt.Fprintf(&b, "  %-28s %12d  (%d labels)\n", n, a.total, a.labels)
		}
	}
	for _, g := range r.sortedGauges() {
		fmt.Fprintf(&b, "gauge %s{%s} = %g\n", g.Name, g.Label, g.Value())
	}
	for _, h := range r.sortedHists() {
		st := h.state()
		if st.count == 0 {
			continue
		}
		fmt.Fprintf(&b, "hist %s{%s}: n=%d avg=%.3fs min=%.3fs max=%.3fs\n",
			h.Name, h.Label, st.count, st.sum/float64(st.count), st.min, st.max)
	}
	return b.String()
}
