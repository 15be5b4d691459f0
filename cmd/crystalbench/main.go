// Command crystalbench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's format. See EXPERIMENTS.md for
// the paper-vs-measured record.
//
// Usage:
//
//	crystalbench [-reps N] [-ldcscale N] [-quick] [-workers N]
//	             [-only table1,figure8,...] [-scale sdc|mdc|ldcdiv]
//	             [-traffic N] [-json] [-trace FILE]
//	             [-memstats FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -quick runs a reduced sweep (fewer repetitions, no M-DC/L-DC in the
// latency figures). -ldcscale divides L-DC's pod count; 1 attempts the full
// 4636-device fabric (needs tens of GB of RAM). -workers bounds the worker
// pool that fans independent emulation runs across cores (0 = GOMAXPROCS).
// -json emits the raw experiment structs as one JSON object instead of the
// formatted tables.
//
// -scale runs the DESIGN.md §10 scale benchmark on one fabric (sdc, mdc, or
// ldcdiv — L-DC at the -ldcscale divisor): wall-clock to route-ready, peak
// and live heap, allocation volume, peak RSS and the intern hit rate.
// -memstats writes the process's closing runtime.MemStats
// (HeapAlloc/TotalAlloc/HeapSys/NumGC) as JSON for benchjson -memstats to
// embed.
//
// -traffic N runs the traffic-plane benchmark (docs/TRAFFIC.md): converge
// the -scale fabric (default sdc), attach an N-flow matrix and time
// re-settles, reporting flows-settled/s. benchjson -traffic embeds the
// -json form.
//
// -cpuprofile / -memprofile write pprof profiles covering
// the selected experiments, so perf work is reproducible without editing
// code:
//
//	crystalbench -only figure8 -quick -cpuprofile cpu.prof
//	go tool pprof -top cpu.prof
//
// -trace FILE runs one Monitor-plane-traced S-DC mockup/converge/clear
// cycle (on top of whatever experiments were selected) and writes a Chrome
// trace_event file that opens in Perfetto — the quickest way to see the
// phase timeline of docs/OBSERVABILITY.md on a real fabric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"crystalnet"
	"crystalnet/internal/experiments"
	"crystalnet/internal/topo"
)

// tracedMockup runs one S-DC mockup/converge/clear cycle under the
// Monitor-plane tracer and writes the Chrome trace_event file to path.
func tracedMockup(path string) error {
	rec := crystalnet.NewRecorder()
	spec := crystalnet.SDC()
	network := crystalnet.GenerateClos(spec)
	topo.AttachWAN(network, spec, 2)
	o := crystalnet.New(crystalnet.Options{Seed: 1, Rec: rec})
	prep, err := o.Prepare(crystalnet.PrepareInput{Network: network})
	if err != nil {
		return err
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		return err
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		return err
	}
	em.Clear(nil)
	o.Eng.Run(0)
	o.Destroy(prep)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.WriteChrome(f)
}

func main() {
	reps := flag.Int("reps", 5, "repetitions per Figure 8 configuration (paper: 10)")
	ldcScale := flag.Int("ldcscale", 8, "L-DC downscale divisor (1 = full fabric)")
	quick := flag.Bool("quick", false, "reduced sweep: S-DC only, 2 reps")
	workers := flag.Int("workers", 0, "worker pool size for independent emulation runs (0 = GOMAXPROCS)")
	only := flag.String("only", "", "comma-separated subset: table1,figure1,figure7,table3,figure8,figure9,sec83,table4,table4solve,sec9")
	jsonOut := flag.Bool("json", false, "emit raw experiment structs as JSON instead of formatted tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to `file`")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken after the runs) to `file`")
	traceOut := flag.String("trace", "", "run one traced S-DC mockup cycle and write a Chrome trace_event file to `file`")
	scale := flag.String("scale", "", "run the §10 scale benchmark on one fabric: sdc, mdc, or ldcdiv (L-DC at the -ldcscale divisor)")
	trafficFlows := flag.Uint64("traffic", 0, "run the traffic-plane benchmark with this many flows on the -scale fabric (default sdc); reports flows-settled/s")
	memStats := flag.String("memstats", "", "write closing runtime.MemStats as JSON to `file` (for benchjson -memstats)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: start CPU profile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	// -scale without -only runs just the scale benchmark: it exists to be a
	// bounded, single-fabric measurement (scripts/check.sh smokes M-DC with
	// it under a timeout).
	run := func(key string) bool {
		if (*scale != "" || *trafficFlows > 0) && len(want) == 0 {
			return false
		}
		return len(want) == 0 || want[key]
	}
	section := func(title string) { fmt.Printf("\n==== %s ====\n\n", title) }

	// With -json, collect every selected experiment's raw structs here and
	// emit a single object at the end.
	raw := map[string]any{}
	emit := func(key, title, formatted string, value any) {
		if *jsonOut {
			raw[key] = value
			return
		}
		section(title)
		fmt.Print(formatted)
	}

	if *scale != "" {
		var spec topo.ClosSpec
		switch *scale {
		case "sdc":
			spec = topo.SDC()
		case "mdc":
			spec = topo.MDC()
		case "ldcdiv":
			spec = topo.LDCScaled(*ldcScale)
		default:
			fmt.Fprintf(os.Stderr, "crystalbench: -scale must be sdc, mdc or ldcdiv (got %q)\n", *scale)
			os.Exit(1)
		}
		r := experiments.Scale(experiments.ScaleConfig{Spec: spec})
		emit("scale", fmt.Sprintf("§10 scale benchmark — %s wall-clock and memory", spec.Name),
			experiments.FormatScale(r), r)
	}
	if *trafficFlows > 0 {
		// The traffic benchmark reuses -scale's fabric selection; without
		// -scale it measures S-DC, the fabric docs/TRAFFIC.md quotes.
		spec := topo.SDC()
		switch *scale {
		case "", "sdc":
		case "mdc":
			spec = topo.MDC()
		case "ldcdiv":
			spec = topo.LDCScaled(*ldcScale)
		}
		r := experiments.Traffic(experiments.TrafficConfig{Spec: spec, Flows: *trafficFlows})
		emit("traffic", fmt.Sprintf("traffic-plane benchmark — %d flows re-settled on %s", r.Flows, spec.Name),
			experiments.FormatTraffic(r), r)
	}
	if run("table1") {
		rows := experiments.Table1()
		emit("table1", "Table 1 — incident root causes: emulation vs verification coverage",
			experiments.FormatTable1(rows), rows)
	}
	if run("figure1") {
		r := experiments.Figure1(200)
		emit("figure1", "Figure 1 — vendor-divergent IP aggregation: traffic imbalance at R8",
			experiments.FormatFigure1(r), r)
	}
	if run("figure7") {
		r := experiments.Figure7()
		emit("figure7", "Figure 7 — safe vs unsafe static boundaries",
			experiments.FormatFigure7(r), r)
	}
	if run("table3") {
		rows := experiments.Table3()
		emit("table3", "Table 3 — evaluation datacenter fabrics",
			experiments.FormatTable3(rows), rows)
	}
	if run("figure8") {
		cfg := experiments.Figure8Config{Reps: *reps, LDCScale: *ldcScale, Workers: *workers}
		if *quick {
			cfg.Reps, cfg.SkipMDC, cfg.SkipLDC = 2, true, true
		}
		points := experiments.Figure8(cfg)
		note := fmt.Sprintf("\n(virtual-time measurements on the simulated cloud; L-DC runs at 1/%d pod scale unless -ldcscale=1)\n", *ldcScale)
		emit("figure8", "Figure 8 — mockup / network-ready / route-ready / clear latencies",
			experiments.FormatFigure8(points)+note, points)
	}
	if run("figure9") {
		series := experiments.Figure9(*ldcScale, *quick, *workers)
		emit("figure9", "Figure 9 — p95 per-VM CPU utilization during Mockup (by minute)",
			experiments.FormatFigure9(series), series)
	}
	if run("sec83") {
		r := experiments.Sec83()
		emit("sec83", "§8.3 — reload latency (two-layer vs strawman) and VM recovery",
			experiments.FormatSec83(r), r)
	}
	if run("table4") {
		rows := experiments.Table4(*workers)
		emit("table4", "Table 4 — safe-boundary emulation scales in L-DC",
			experiments.FormatTable4(rows), rows)
	}
	if run("table4solve") {
		rows := experiments.Table4Solve(*workers)
		emit("table4solve", "Table 4 (generalized) — solver vs hand-picked boundaries in L-DC",
			experiments.FormatTable4Solve(rows), rows)
	}
	if run("sec9") {
		r := experiments.CrossValidate(*workers)
		emit("sec9", "§9 — FIB cross-validation: strict vs ECMP-aware comparator",
			experiments.FormatCrossValidate(r), r)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(raw); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -json: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Println()
	}

	if *traceOut != "" {
		if err := tracedMockup(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "crystalbench: wrote %s (open in ui.perfetto.dev)\n", *traceOut)
	}

	if *memStats != "" {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		stats := map[string]uint64{
			"heap_alloc":  m.HeapAlloc,
			"total_alloc": m.TotalAlloc,
			"heap_sys":    m.HeapSys,
			"num_gc":      uint64(m.NumGC),
		}
		f, err := os.Create(*memStats)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -memstats: %v\n", err)
			os.Exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -memstats: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "crystalbench: write heap profile: %v\n", err)
			os.Exit(1)
		}
	}
}
