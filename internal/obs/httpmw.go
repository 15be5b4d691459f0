package obs

import (
	"net/http"
	"time"
)

// statusWriter captures the response code a handler wrote (200 when the
// handler never calls WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Middleware instruments an HTTP handler with the standard families,
// labeled by route:
//
//	http.requests  (counter)  requests completed
//	http.errors    (counter)  responses with status >= 500, and panics
//	                          before any status was written
//	http.latency   (histogram) wall-clock seconds per request
//	http.in_flight (gauge)    requests currently being served
//
// The accounting is deferred, so a panicking handler is still counted;
// the panic itself propagates to net/http unchanged. A nil *Recorder
// vends nil handles, so the wrapper degrades to plain status-code capture.
func (r *Recorder) Middleware(route string, next http.Handler) http.Handler {
	requests := r.Counter("http.requests", route)
	errors := r.Counter("http.errors", route)
	latency := r.Histogram("http.latency", route)
	inFlight := r.Gauge("http.in_flight", route)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		returned := false
		defer func() {
			inFlight.Add(-1)
			requests.Inc()
			if sw.status >= 500 || (!returned && sw.status == 0) {
				errors.Inc()
			}
			latency.Observe(time.Since(start).Seconds())
		}()
		next.ServeHTTP(sw, req)
		returned = true
	})
}
