package experiments

import (
	"fmt"
	"strings"
	"time"

	"crystalnet/internal/core"
	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

// This file is the traffic-plane benchmark (docs/TRAFFIC.md): converge one
// fabric, attach a production-sized flow matrix, and measure how fast the
// flow-level walker re-settles it against the live FIBs. The headline
// number is flows-settled/s — the rate at which user load can be
// re-evaluated at every convergence point of a chaos campaign.

// TrafficConfig selects the fabric and load for the traffic benchmark.
type TrafficConfig struct {
	// Spec is the fabric to converge (topo.SDC/MDC/LDCScaled).
	Spec topo.ClosSpec
	// Flows is the modeled flow count (default 1 million).
	Flows uint64
	// Settles is how many timed re-settles to run after the attach
	// (default 5).
	Settles int
	// Seed seeds the emulation and the matrix (0 means 1).
	Seed int64
}

// TrafficResult is one measured traffic attach+settle at scale.
type TrafficResult struct {
	Fabric     string `json:"fabric"`
	Devices    int    `json:"devices"`
	Flows      uint64 `json:"flows"`
	Aggregates int    `json:"aggregates"`

	// ConvergeWall is host time for mockup+convergence (context for the
	// settle numbers, comparable with the §10 scale benchmark).
	ConvergeWall time.Duration `json:"converge_wall_ns"`
	// AttachWall covers matrix construction plus the first settle.
	AttachWall time.Duration `json:"attach_wall_ns"`
	// SettleWall is total host time for the timed re-settles; Settles is
	// how many ran. FlowsPerSec is Flows*Settles/SettleWall — the headline
	// flows-settled/s rate.
	SettleWall  time.Duration `json:"settle_wall_ns"`
	Settles     int           `json:"settles"`
	FlowsPerSec float64       `json:"flows_per_sec"`

	// Final-settle accounting, summed over classes: a healthy fabric
	// delivers everything.
	Delivered  uint64 `json:"delivered"`
	Blackholed uint64 `json:"blackholed"`
	Lost       uint64 `json:"lost"`
}

// Traffic converges cfg.Spec, attaches a cfg.Flows-flow matrix and times
// re-settles against the converged FIBs.
func Traffic(cfg TrafficConfig) TrafficResult {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Flows == 0 {
		cfg.Flows = 1_000_000
	}
	if cfg.Settles == 0 {
		cfg.Settles = 5
	}

	start := time.Now()
	n := topo.GenerateClos(cfg.Spec)
	topo.AttachWAN(n, cfg.Spec, 2)
	o := core.New(core.Options{Seed: cfg.Seed})
	prep, err := o.Prepare(core.PrepareInput{Network: n})
	if err != nil {
		panic(err)
	}
	em, err := o.Mockup(prep, false)
	if err != nil {
		panic(err)
	}
	if _, err := em.RunUntilConverged(0); err != nil {
		panic(err)
	}
	converge := time.Since(start)

	start = time.Now()
	if err := em.AttachTraffic(traffic.Spec{Flows: cfg.Flows, Seed: cfg.Seed}); err != nil {
		panic(err)
	}
	attach := time.Since(start)

	start = time.Now()
	for i := 0; i < cfg.Settles; i++ {
		em.SettleTraffic()
	}
	settle := time.Since(start)

	rep := em.Traffic().Report()
	res := TrafficResult{
		Fabric:     cfg.Spec.Name,
		Devices:    len(em.Devices),
		Flows:      rep.Flows,
		Aggregates: rep.Aggregates,

		ConvergeWall: converge,
		AttachWall:   attach,
		SettleWall:   settle,
		Settles:      cfg.Settles,
		FlowsPerSec:  float64(rep.Flows) * float64(cfg.Settles) / settle.Seconds(),
	}
	for _, c := range rep.Classes {
		res.Delivered += c.Delivered
		res.Blackholed += c.Blackholed
		res.Lost += c.Lost
	}
	em.Teardown()
	o.Destroy(prep)
	return res
}

// FormatTraffic renders the traffic benchmark result.
func FormatTraffic(r TrafficResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %8s %10s %11s %11s %11s %11s %15s\n",
		"fabric", "devices", "flows", "aggregates", "converge", "attach", "settle", "flows/s")
	fmt.Fprintf(&b, "%-9s %8d %10d %11d %11s %11s %11s %15.0f\n",
		r.Fabric, r.Devices, r.Flows, r.Aggregates,
		r.ConvergeWall.Round(time.Millisecond),
		r.AttachWall.Round(time.Millisecond),
		(r.SettleWall / time.Duration(r.Settles)).Round(time.Millisecond),
		r.FlowsPerSec)
	fmt.Fprintf(&b, "\nfinal settle: %d delivered, %d blackholed, %d lost (settle column is per-settle over %d runs)\n",
		r.Delivered, r.Blackholed, r.Lost, r.Settles)
	return b.String()
}
