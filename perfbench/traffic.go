package main

import (
	"fmt"
	"time"

	"crystalnet/internal/topo"
	"crystalnet/internal/traffic"
)

const (
	// trafficFlows is the modeled user load: one million flows.
	trafficFlows = 1_000_000
	// trafficAggregates is what one million flows aggregate to on S-DC
	// (per ingress, prefix pair and class), whatever the traffic seed.
	trafficAggregates = 9120
)

// runSDCTraffic is the sdc-traffic workload: converge S-DC and attach a
// 1M-flow matrix (set-up), then repeat SettleTraffic against the converged
// FIBs. It is the only workload that exercises the traffic plane and
// dataplane.ForwardBatch; attached to the others it would add a settle at
// every convergence point and drown their layers.
func runSDCTraffic(b *bench) error {
	emSeed := subSeed(b.seed, "emulation")
	spec := traffic.Spec{Flows: trafficFlows, Seed: subSeed(b.seed, "traffic")}
	b.info["emulation_seed"] = emSeed
	b.info["traffic_seed"] = spec.Seed

	var c *converged
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			c.release()
		}
		err := b.timeSetup(func() (err error) {
			coldIntern()
			var net *topo.Network
			_ = b.tr.do("topo.generate", -1, func() error {
				clos := topo.SDC()
				net = topo.GenerateClos(clos)
				topo.AttachWAN(net, clos, 2)
				return nil
			})
			if c, err = b.prepare(net, emSeed, -1); err != nil {
				return err
			}
			if err := b.converge(c, -1); err != nil {
				return err
			}
			return b.tr.do("traffic.attach", -1, func() error { return c.em.AttachTraffic(spec) })
		})
		if err != nil {
			return err
		}
		err = settledClean(c, 1)
		b.check(err == nil, "set-up %d: %v", rep, err)
	}
	if b.traced {
		b.recordConvergence(c)
	}
	b.liveHeap()

	// Settles run on the one emulation, so one worker: a settle is a
	// single caller's operation.
	settles := c.em.Traffic().Settles()
	settle := func(i int) (time.Duration, error) {
		t0 := time.Now()
		_ = b.tr.do("traffic.settle", i, func() error { c.em.SettleTraffic(); return nil })
		d := time.Since(t0)
		settles++
		return d, settledClean(c, settles)
	}
	if err := b.measure(1, settle, settle); err != nil {
		return err
	}
	b.layer["traffic.aggregates"] = float64(c.em.Traffic().Aggregates())
	b.info["traffic_aggregates"] = c.em.Traffic().Aggregates()
	return nil
}

// settledClean checks the matrix after a settle on the converged fabric:
// the expected settle count, every flow delivered, none blackholed or lost,
// and the fixed aggregate count.
func settledClean(c *converged, wantSettles uint64) error {
	rep := c.em.Traffic().Report()
	var delivered, black, lost uint64
	for _, cl := range rep.Classes {
		delivered += cl.Delivered
		black += cl.Blackholed
		lost += cl.Lost
	}
	switch {
	case rep.Settles != wantSettles:
		return fmt.Errorf("%d settles recorded, want %d", rep.Settles, wantSettles)
	case rep.Aggregates != trafficAggregates:
		return fmt.Errorf("%d aggregates, want %d", rep.Aggregates, trafficAggregates)
	case rep.Flows != trafficFlows || delivered != trafficFlows || black != 0 || lost != 0:
		return fmt.Errorf("%d flows: %d delivered, %d blackholed, %d lost", rep.Flows, delivered, black, lost)
	}
	return nil
}
