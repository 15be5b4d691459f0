package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// validName reports whether s is a legal workload or metric name: it starts
// with a letter or digit and holds at most 64 letters, digits, '_', '.'
// and '-'.
func validName(s string) error {
	if s == "" || len(s) > 64 {
		return fmt.Errorf("name %q: length %d not in 1..64", s, len(s))
	}
	for i, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 && !alnum {
			return fmt.Errorf("name %q: must start with a letter or digit", s)
		}
		if !alnum && c != '_' && c != '.' && c != '-' {
			return fmt.Errorf("name %q: character %q not allowed", s, c)
		}
	}
	return nil
}

// validUnit reports whether s is a legal unit: at most 16 letters, digits,
// '_', '/', '%', '.' and '-'.
func validUnit(s string) error {
	if s == "" || len(s) > 16 {
		return fmt.Errorf("unit %q: length %d not in 1..16", s, len(s))
	}
	for _, c := range s {
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return fmt.Errorf("unit %q: character %q not allowed", s, c)
		}
	}
	return nil
}

func TestNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "op_p50_ms", "sim.events", "crystald-warm", "9lives", "net_http.cpu_pct"} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q): %v", ok, err)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "a"
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "op p50", "a/b", "x%", "héllo", long} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "%", "count", "MB"} {
		if err := validUnit(ok); err != nil {
			t.Errorf("validUnit(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "m s", "ms!", "aaaaaaaaaaaaaaaaa"} {
		if validUnit(bad) == nil {
			t.Errorf("validUnit(%q) accepted", bad)
		}
	}
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step, and every name within the charset.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	seen := map[string]bool{}
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v not in (0, 0.25]", m.Name, m.Bound)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if err := validName(want[i].Name); err != nil {
				t.Error(err)
			}
			if err := validUnit(want[i].Unit); err != nil {
				t.Error(err)
			}
			if seen[want[i].Name] {
				t.Errorf("%s used twice", want[i].Name)
			}
			seen[want[i].Name] = true
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if err := validName(w.Name); err != nil {
			t.Error(err)
		}
	}
}
