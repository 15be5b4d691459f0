package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestParseRealProfile decodes a profile the runtime wrote and finds the
// function that burned the CPU.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("profiler busy: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range p.samples {
		total += s.value
		st := p.stack(s)
		if len(st) > 0 && strings.HasSuffix(st[0], ".spin") {
			inSpin += s.value
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin has %d of %d ns; want most of the profile", inSpin, total)
	}
	shares := p.cpuShares()
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
	}
	if sum < 99.99 || sum > 100.01 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if shares["other"] < 50 {
		t.Errorf("other = %v%%; the benchmark's own code should land there", shares["other"])
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"crystalnet/internal/bgp.(*Router).decide", "crystalnet/internal/sim.(*Engine).Run"}, "bgp"},
		{[]string{"runtime.mapaccess2", "crystalnet/internal/rib.(*Dense).Get", "crystalnet/internal/bgp.x"}, "rib"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "crystalnet/internal/trie.New"}, "runtime_malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc", "crystalnet/internal/bgp.x"}, "runtime_gc"},
		{[]string{"encoding/json.(*encodeState).string", "crystalnet/internal/scenario.(*Report).JSON"}, "encoding_json"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "net_http"},
		{[]string{"crystalnet/internal/cloud.(*Cloud).Boot"}, "other"},
		{[]string{"crystalnet/internal/core.(*Emulation).Fork"}, "core"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte{0x12, 0xff}); err == nil {
		t.Error("truncated message accepted")
	}
}
