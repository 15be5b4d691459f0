// Command perfbench is crystalnet's host-cost benchmark: the wall time,
// CPU and memory an operator pays to mock up a fabric and rehearse changes
// on it. It runs one named workload against the library's public
// functions, checks every output, and prints the metrics as one JSON line.
//
//	bash perfbench/run.sh --workload sdc-chaos --seed 7 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload once untraced and once with spans around each layer call
// and a CPU profile, and prints the per-layer metrics. README.md describes
// every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crystalnet/internal/bgp"
)

// workload is one named input set and the code that drives it.
type workload struct {
	run func(*bench) error
	// tailPct is the percentile op_tail_ms reports. It is fixed per
	// workload, so runs of different code compare the same percentile; it
	// is chosen to leave at least minBeyond samples above it at the
	// BENCHMARK.json run length.
	tailPct float64
}

var workloads = map[string]workload{
	"mdc-cold":      {runMDCCold, 100},
	"sdc-chaos":     {runSDCChaos, 75},
	"sdc-traffic":   {runSDCTraffic, 90},
	"crystald-warm": {runCrystaldWarm, 95},
}

// setupReps is how many times each workload sets up; setup_s is their
// median.
const setupReps = 5

// bench is one run's configuration and accumulated observations.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	workers  int // of the measured phase
	root     string

	tr *tracer // nil unless traced

	mu        sync.Mutex
	setupS    []float64
	opMS      []float64 // successful operations of the measured phase
	plainMS   []float64 // traced run: the untraced half's operations
	attempted int
	failed    int
	problems  []string
	phaseWall time.Duration
	phaseCPU  time.Duration
	phaseOps  int

	liveHeapMB float64
	layer      map[string]float64
	info       map[string]any
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: mdc-cold, sdc-chaos, sdc-traffic or crystald-warm")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of mdc-cold, sdc-chaos, sdc-traffic, crystald-warm), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, root: root,
		layer: map[string]float64{}, info: map[string]any{},
	}
	if b.traced {
		b.tr = &tracer{on: true}
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	res, err := b.result(w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", p)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": b.infoDoc(w)}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// subSeed derives an independent positive seed for one input stream
// (emulation, faults, traffic, ...) from the workload seed.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(seed) ^ h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>1) | 1
}

// nproc is the worker or client count of the concurrent workloads.
func (b *bench) nproc() int { return runtime.GOMAXPROCS(0) }

// coldIntern empties the process-wide BGP attribute intern table (the
// default configuration, interning on), so each convergence the benchmark
// starts pays the same cold-table cost however many ran before it in the
// process.
func coldIntern() { bgp.SetInterning(true) }

// timeSetup runs one set-up repetition and records its wall time. A
// collection first keeps the previous repetition's garbage out of it.
func (b *bench) timeSetup(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	if err := fn(); err != nil {
		return err
	}
	b.setupS = append(b.setupS, time.Since(t0).Seconds())
	return nil
}

// check counts one checked operation outside the measured loop (a set-up
// repetition or a verification); ok false records it as failed.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.failed++
		b.noteLocked(fmt.Sprintf(format, args...))
	}
}

func (b *bench) noteLocked(p string) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, p)
	}
}

// op is one measured operation: it returns the latency it measured (which
// may exclude its own preparation and output checks) and an error when it
// failed or its output was wrong.
type op func(i int) (time.Duration, error)

// closedLoop runs op from workers goroutines until the budget is spent.
// Each worker starts its next operation only after the previous one
// returned, and only if the previous one's duration still fits in the
// budget, so a phase overruns its budget by at most one short operation.
// It returns the successful latencies in ms and records counts, wall and
// CPU time of the phase.
func (b *bench) closedLoop(workers int, budget time.Duration, fn op) []float64 {
	var next atomic.Int64
	var lat []float64
	ops, failed := 0, 0
	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Duration
			for time.Since(start)+last <= budget {
				t0 := time.Now()
				i := int(next.Add(1) - 1)
				d, err := fn(i)
				last = time.Since(t0)
				b.mu.Lock()
				ops++
				if err != nil {
					failed++
					b.noteLocked(fmt.Sprintf("operation %d: %v", i, err))
				} else {
					lat = append(lat, float64(d)/float64(time.Millisecond))
				}
				b.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	b.attempted += ops
	b.failed += failed
	b.phaseWall = time.Since(start)
	b.phaseCPU = cpuTime() - cpu0
	b.phaseOps = ops
	return lat
}

// measure runs the workload's measured phase. Untraced, it is one closed
// loop on workers goroutines. Traced, it is two single-worker loops of half
// the budget each: without spans first, then with spans and the CPU
// profile on, so span allocation counts stay per-operation and the
// overhead compares like with like. (Set-up runs with spans on.)
func (b *bench) measure(workers int, plain, traced op) error {
	if !b.traced {
		b.workers = workers
		b.opMS = b.closedLoop(workers, b.budget, plain)
		return nil
	}
	b.workers = 1
	b.tr.setOn(false)
	b.plainMS = b.closedLoop(1, b.budget/2, plain)
	b.tr.setOn(true)
	if err := b.tr.startProfile(); err != nil {
		return err
	}
	b.opMS = b.closedLoop(1, b.budget/2, traced)
	b.tr.stopProfile()
	return nil
}

// liveHeap records HeapAlloc after a forced collection: the memory the
// workload's resident state holds at this point.
func (b *bench) liveHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the printed metrics: the end-to-end set untraced, the
// per-layer set traced.
func (b *bench) result(w workload) (*result, error) {
	if b.attempted == 0 || len(b.setupS) == 0 {
		return nil, fmt.Errorf("no operation ran")
	}
	vals := map[string]float64{}
	var defs []metricDef
	if !b.traced {
		defs = endToEnd
		lat := sortedCopy(b.opMS)
		vals["setup_s"] = median(b.setupS)
		vals["op_p50_ms"] = median(lat)
		vals["op_tail_ms"] = percentile(lat, w.tailPct)
		vals["ops_per_s"] = float64(len(lat)) / b.phaseWall.Seconds()
		vals["op_cpu_ms"] = float64(b.phaseCPU) / float64(time.Millisecond) / float64(max(b.phaseOps, 1))
		vals["live_heap_mb"] = b.liveHeapMB
		vals["peak_rss_mb"] = peakRSSMB()
		vals["ok_pct"] = 100 * float64(b.attempted-b.failed) / float64(b.attempted)
	} else {
		defs = perLayer()
		b.tr.layerMetrics(vals)
		for k, v := range b.layer {
			vals[k] = v
		}
		prof, err := parseProfile(b.tr.prof.Bytes())
		if err != nil {
			return nil, err
		}
		for m, v := range prof.cpuShares() {
			vals[m+".cpu_pct"] = v
		}
		vals["op.samples"] = float64(len(b.opMS))
		if base := median(b.plainMS); base > 0 && len(b.opMS) > 0 {
			vals["trace.overhead_pct"] = 100 * (median(b.opMS) - base) / base
		}
	}
	res := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			if !b.traced {
				res.Correct = false
			}
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// infoDoc is the line printed before the result: the host fingerprint,
// the inputs, and the outputs that must repeat exactly from run to run.
func (b *bench) infoDoc(w workload) map[string]any {
	doc := map[string]any{
		"workload": b.workload,
		"seed":     b.seed,
		"trace":    b.traced,
		"seconds":  b.budget.Seconds(),
		"workers":  b.workers,
		"host":     fingerprint(b.root),
		"samples":  len(b.opMS),
		"tail_pct": w.tailPct,
	}
	if lat := sortedCopy(b.opMS); len(lat) > 0 {
		q := map[string]float64{}
		for _, p := range []float64{10, 25, 50, 75, 90} {
			q[fmt.Sprintf("p%g", p)] = percentile(lat, p)
		}
		doc["latency_ms"] = q
	}
	if p, ok := tailPercentile(len(b.opMS)); ok {
		doc["tail_rule_pct"] = p
	}
	if len(b.problems) > 0 {
		doc["problems"] = b.problems
	}
	for k, v := range b.info {
		doc[k] = v
	}
	return doc
}
