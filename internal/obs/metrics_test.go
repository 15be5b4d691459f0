package obs

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilLiveIsNoOp(t *testing.T) {
	var r *Recorder
	c := r.Counter("x", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	g := r.Gauge("y", "")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := r.Histogram("z", "")
	h.Observe(1)
	h.ObserveN(1, 4)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed")
	}
	var prom strings.Builder
	if err := r.WriteProm(&prom); err != nil || prom.Len() != 0 {
		t.Fatalf("nil WriteProm = %q, %v; want nothing", prom.String(), err)
	}
}

func TestLiveHandlesAreStable(t *testing.T) {
	r := New()
	if r.Counter("a", "x") != r.Counter("a", "x") {
		t.Fatal("same key vended distinct counters")
	}
	if r.Counter("a", "x") == r.Counter("a", "y") {
		t.Fatal("distinct labels shared a counter")
	}
	if r.Gauge("g", "") != r.Gauge("g", "") {
		t.Fatal("same key vended distinct gauges")
	}
	if r.Histogram("h", "") != r.Histogram("h", "") {
		t.Fatal("same key vended distinct histograms")
	}
}

// TestLiveConcurrentUpdates shares one Recorder between goroutines that
// register, update and export at once, as crystald's handlers do; run it
// under -race.
func TestLiveConcurrentUpdates(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("reqs", "")
			h := r.Histogram("lat", "")
			g := r.Gauge("inflight", "")
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.01)
				g.Add(-1)
				if i%250 == 0 {
					_ = r.WriteProm(io.Discard)
					_ = r.WriteJSON(io.Discard)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("reqs", "").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat", "").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("inflight", "").Value(); got != 0 {
		t.Fatalf("gauge = %g, want 0", got)
	}
}

func TestWritePromFormat(t *testing.T) {
	r := New()
	r.Counter("http.requests", "/v1/rehearse").Add(3)
	r.Gauge("pool.size", "").Set(2)
	r.Histogram("http.latency", "/v1/rehearse").Observe(0.5)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE http_requests counter",
		`http_requests{label="/v1/rehearse"} 3`,
		"# TYPE pool_size gauge",
		"pool_size 2",
		"# TYPE http_latency histogram",
		`http_latency_bucket{label="/v1/rehearse",le="131.072"} 1`,
		`http_latency_bucket{label="/v1/rehearse",le="+Inf"} 1`,
		`http_latency_count{label="/v1/rehearse"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromSortsFamilies(t *testing.T) {
	r := New()
	r.Counter("pool.misses", "").Inc()
	r.Counter("http.requests", "/v1/status").Inc()
	r.Counter("http.requests", "/healthz").Inc()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE http_requests counter\n" +
		"http_requests{label=\"/healthz\"} 1\n" +
		"http_requests{label=\"/v1/status\"} 1\n" +
		"# TYPE pool_misses counter\n" +
		"pool_misses 1\n"
	if got := sb.String(); got != want {
		t.Fatalf("prom output:\n%s\nwant:\n%s", got, want)
	}
}

func TestMiddlewareRecords(t *testing.T) {
	r := New()
	h := r.Middleware("/boom", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	ok := r.Middleware("/ok", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = w.Write([]byte("hi")) // implicit 200
	}))
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	}
	rec := httptest.NewRecorder()
	ok.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))

	if got := r.Counter("http.requests", "/boom").Value(); got != 3 {
		t.Fatalf("requests = %d, want 3", got)
	}
	if got := r.Counter("http.errors", "/boom").Value(); got != 3 {
		t.Fatalf("errors = %d, want 3", got)
	}
	if got := r.Counter("http.errors", "/ok").Value(); got != 0 {
		t.Fatalf("ok errors = %d, want 0", got)
	}
	if got := r.Histogram("http.latency", "/ok").Count(); got != 1 {
		t.Fatalf("latency count = %d, want 1", got)
	}
	if got := r.Gauge("http.in_flight", "/ok").Value(); got != 0 {
		t.Fatalf("in-flight = %g, want 0", got)
	}
}

// TestMiddlewareCountsPanickingRequest drives a panicking handler through
// a real server: net/http recovers the panic and drops the connection,
// and the request must still leave the in-flight gauge, the request and
// error counters and the latency histogram consistent.
func TestMiddlewareCountsPanickingRequest(t *testing.T) {
	r := New()
	srv := httptest.NewUnstartedServer(r.Middleware("/panic", http.HandlerFunc(
		func(w http.ResponseWriter, req *http.Request) { panic("handler bug") })))
	srv.Config.ErrorLog = log.New(io.Discard, "", 0)
	srv.Start()
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/panic")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("panicking handler answered %d; want a dropped connection", resp.StatusCode)
	}
	if got := r.Gauge("http.in_flight", "/panic").Value(); got != 0 {
		t.Fatalf("in-flight = %g, want 0", got)
	}
	if got := r.Counter("http.requests", "/panic").Value(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
	if got := r.Counter("http.errors", "/panic").Value(); got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
	if got := r.Histogram("http.latency", "/panic").Count(); got != 1 {
		t.Fatalf("latency count = %d, want 1", got)
	}
}

func TestNilMiddlewarePassesThrough(t *testing.T) {
	var r *Recorder
	h := r.Middleware("/x", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rec.Code)
	}
}
