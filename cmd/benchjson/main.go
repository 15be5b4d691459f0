// benchjson merges `go test -bench` text (stdin), `crystalbench -json`
// output (-crystal), `crystalload` output (-loadtest), and the §10 scale
// benchmark (-scale, -memstats) into one machine-readable BENCH_<date>.json
// document, so benchmark history can be diffed across commits without
// scraping the formats separately.
// scripts/bench.sh and scripts/loadtest.sh are the intended drivers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// microBench is one parsed `go test -bench` result line.
type microBench struct {
	Name        string  `json:"name"`
	Package     string  `json:"package,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

type document struct {
	Date         string          `json:"date"`
	GoVersion    string          `json:"go"`
	CPUs         int             `json:"cpus"`
	CrystalBench json.RawMessage `json:"crystalbench,omitempty"`
	// LoadTest embeds crystalload's output: crystald latency quantiles and
	// warm-pool hit rate under concurrent rehearsal requests.
	LoadTest json.RawMessage `json:"loadtest,omitempty"`
	// MemStats embeds the runtime.MemStats summary crystalbench -memstats
	// writes (heap_alloc, total_alloc, heap_sys, num_gc), so heap history
	// rides the same document as the latency numbers.
	MemStats json.RawMessage `json:"memstats,omitempty"`
	// Scale embeds crystalbench -scale -json output: the DESIGN.md §10
	// whole-fabric convergence result (wall-clock, peak/live heap, peak
	// RSS, intern hit rate).
	Scale json.RawMessage `json:"scale,omitempty"`
	// Traffic embeds crystalbench -traffic -json output: the traffic-plane
	// benchmark (docs/TRAFFIC.md) — flow matrix size, per-settle wall-clock
	// and the flows-settled/s rate.
	Traffic    json.RawMessage `json:"traffic,omitempty"`
	Benchmarks []microBench    `json:"benchmarks"`
}

// embedJSON validates and returns a file's raw JSON for embedding.
func embedJSON(path string) json.RawMessage {
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	if !json.Valid(raw) {
		log.Fatalf("%s: not valid JSON", path)
	}
	return json.RawMessage(raw)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	crystal := flag.String("crystal", "", "path to crystalbench -json output to embed")
	loadtest := flag.String("loadtest", "", "path to crystalload output to embed")
	memstats := flag.String("memstats", "", "path to crystalbench -memstats output to embed")
	scale := flag.String("scale", "", "path to crystalbench -scale -json output to embed")
	trafficPath := flag.String("traffic", "", "path to crystalbench -traffic -json output to embed")
	flag.Parse()

	doc := document{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
	}
	if *crystal != "" {
		doc.CrystalBench = embedJSON(*crystal)
	}
	if *loadtest != "" {
		doc.LoadTest = embedJSON(*loadtest)
	}
	if *memstats != "" {
		doc.MemStats = embedJSON(*memstats)
	}
	if *scale != "" {
		doc.Scale = embedJSON(*scale)
	}
	if *trafficPath != "" {
		doc.Traffic = embedJSON(*trafficPath)
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		b.Package = pkg
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		log.Fatal(err)
	}
}

// parseBenchLine decodes one result line, e.g.
//
//	BenchmarkLookup-8   1000000   1234 ns/op   56 B/op   2 allocs/op
func parseBenchLine(line string) (microBench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return microBench{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return microBench{}, false
	}
	b := microBench{Name: f[0], Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val := f[i]
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp, err = strconv.ParseFloat(val, 64)
		case "B/op":
			b.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			b.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
		default:
			continue
		}
		if err != nil {
			return microBench{}, false
		}
	}
	if b.NsPerOp == 0 && b.Iterations == 0 {
		return microBench{}, false
	}
	return b, true
}
