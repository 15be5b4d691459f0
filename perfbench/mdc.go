package main

import (
	"fmt"
	"math/rand"
	"time"

	"crystalnet/internal/topo"
)

// mdcCheckPairs is how many seeded reachability queries verify each
// converged M-DC; the full sweep (every device to every prefix) would cost
// more than a second per run and check nothing a sample does not.
const mdcCheckPairs = 4096

// runMDCCold is the mdc-cold workload: generate M-DC with its WAN and
// prepare the plan (set-up), then Mockup and RunUntilConverged from empty
// (the measured operation). It is the only workload dominated by cold bulk
// BGP convergence and the memory model (intern table, Dense RIBs); it does
// no fork, sweep, settle or HTTP work.
func runMDCCold(b *bench) error {
	emSeed := subSeed(b.seed, "emulation")
	b.info["emulation_seed"] = emSeed
	setup := func(opIdx int) (*converged, error) {
		var net *topo.Network
		_ = b.tr.do("topo.generate", opIdx, func() error {
			spec := topo.MDC()
			net = topo.GenerateClos(spec)
			topo.AttachWAN(net, spec, 2)
			return nil
		})
		return b.prepare(net, emSeed, opIdx)
	}

	var next *converged
	for rep := 0; rep < setupReps; rep++ {
		if next != nil {
			next.release()
		}
		err := b.timeSetup(func() (err error) {
			next, err = setup(-1)
			return err
		})
		if err != nil {
			return err
		}
	}

	// The first operation uses the last set-up; later ones prepare a fresh
	// fabric outside their measured latency.
	first := true
	var events []uint64
	var vs []time.Duration
	converge := func(i int) (time.Duration, error) {
		c := next
		if c == nil {
			var err error
			if c, err = setup(i); err != nil {
				return 0, err
			}
		}
		next = nil
		defer c.release()
		coldIntern()
		t0 := time.Now()
		if err := b.converge(c, i); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if b.tr.isOn() {
			b.recordConvergence(c)
		}
		events = append(events, c.events)
		vs = append(vs, c.routeReady)
		if first {
			b.liveHeap()
			first = false
		}
		if bad := blackholes(c.em, samplePairs(sweepPairs(c.em, c.net), b.seed)); len(bad) > 0 {
			return d, fmt.Errorf("%d of %d sampled pairs blackholed, first %s", len(bad), mdcCheckPairs, bad[0])
		}
		if n := len(events) - 1; events[n] != events[0] || vs[n] != vs[0] {
			return d, fmt.Errorf("convergence %d: %d events at %s, first convergence: %d events at %s",
				n, events[n], vs[n], events[0], vs[0])
		}
		return d, nil
	}
	if err := b.measure(1, converge, converge); err != nil {
		return err
	}
	if len(events) > 0 {
		b.info["sim_events"] = events[0]
		b.info["route_ready_vs"] = vs[0].Seconds()
	}
	return nil
}

// samplePairs picks mdcCheckPairs of pairs, seeded.
func samplePairs(pairs []pair, seed int64) []pair {
	if len(pairs) <= mdcCheckPairs {
		return pairs
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "mdc-check")))
	out := make([]pair, mdcCheckPairs)
	for i := range out {
		out[i] = pairs[rng.Intn(len(pairs))]
	}
	return out
}
