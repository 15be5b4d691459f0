package main

import (
	"net/http"
	"testing"
)

func TestHTTPServerBoundsHeaderRead(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer(h)
	if srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", srv.ReadHeaderTimeout)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.ReadTimeout != readTimeout || readTimeout < readHeaderTimeout {
		t.Fatalf("ReadTimeout = %v, want %v (no shorter than the header bound %v)",
			srv.ReadTimeout, readTimeout, readHeaderTimeout)
	}
	if srv.Handler == nil {
		t.Fatal("server has no handler")
	}
}
