package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"crystalnet/internal/batfish"
	"crystalnet/internal/bgp"
	"crystalnet/internal/checkpoint"
	"crystalnet/internal/config"
	"crystalnet/internal/core"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/rib"
	"crystalnet/internal/scenario"
	"crystalnet/internal/topo"
)

// This file drives the emulator through core, checkpoint and batfish
// directly instead of through scenario.Converged.Run, so the traced run
// can put a span around each layer's call. It follows the scenario
// runner step for step for the operations the benchmark's specs use.

// converged is a fabric driven to route-ready by direct core calls.
type converged struct {
	net  *topo.Network
	orch *core.Orchestrator
	prep *core.Preparation
	em   *core.Emulation

	events     uint64
	routeReady time.Duration // virtual time from Mockup to the last FIB change
	wall       time.Duration // host time of RunUntilConverged
	internHit  float64       // intern hit share during the convergence, %
	internSize int
	denseMB    float64 // Dense RIB bytes added by the convergence
}

// prepare builds the orchestrator and plan for net (spans core.prepare).
func (b *bench) prepare(net *topo.Network, seed int64, opIdx int) (*converged, error) {
	c := &converged{net: net, orch: core.New(core.Options{Seed: seed})}
	err := b.tr.do("core.prepare", opIdx, func() (err error) {
		c.prep, err = c.orch.Prepare(core.PrepareInput{Network: net})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	if c.prep.SafetyErr != nil {
		return nil, fmt.Errorf("prepare: boundary unsafe: %w", c.prep.SafetyErr)
	}
	return c, nil
}

// converge mocks up a prepared fabric and runs it to route-ready (spans
// core.mockup and core.converge).
func (b *bench) converge(c *converged, opIdx int) error {
	h0, m0, _ := bgp.InternStats()
	dense0 := rib.Stats().DenseBytes
	err := b.tr.do("core.mockup", opIdx, func() (err error) {
		c.em, err = c.orch.Mockup(c.prep, false)
		return err
	})
	if err != nil {
		return fmt.Errorf("mockup: %w", err)
	}
	var m core.Metrics
	t0 := time.Now()
	err = b.tr.do("core.converge", opIdx, func() (err error) {
		m, err = c.em.RunUntilConverged(0)
		return err
	})
	if err != nil {
		return fmt.Errorf("converge: %w", err)
	}
	c.wall = time.Since(t0)
	c.events = c.orch.Eng.Fired()
	c.routeReady = m.Mockup
	h1, m1, size := bgp.InternStats()
	if n := (h1 - h0) + (m1 - m0); n > 0 {
		c.internHit = 100 * float64(h1-h0) / float64(n)
	}
	c.internSize = size
	c.denseMB = float64(rib.Stats().DenseBytes-dense0) / (1 << 20)
	return nil
}

// release tears the emulation down and frees its VMs.
func (c *converged) release() {
	if c.em != nil {
		c.em.Teardown()
	}
	c.orch.Destroy(c.prep)
}

// recordConvergence stores a traced convergence's layer counters.
func (b *bench) recordConvergence(c *converged) {
	b.layer["sim.events"] = float64(c.events)
	b.layer["sim.events_per_s"] = float64(c.events) / c.wall.Seconds()
	b.layer["core.route_ready_vs"] = c.routeReady.Seconds()
	b.layer["bgp.intern_hit_pct"] = c.internHit
	b.layer["bgp.intern_entries"] = float64(c.internSize)
	b.layer["rib.dense_mb"] = c.denseMB
	b.info["sim_events"] = c.events
	b.info["route_ready_vs"] = c.routeReady.Seconds()
}

// base is a converged fabric checkpointed for forking, with the state a
// rehearsal compares against.
type base struct {
	*converged
	snap        *checkpoint.Snapshot
	origConfigs map[string]*config.DeviceConfig
	baseline    *core.State
}

// checkpointBase snapshots a converged fabric (span checkpoint.snapshot).
func (b *bench) checkpointBase(c *converged) (*base, error) {
	bs := &base{converged: c, origConfigs: map[string]*config.DeviceConfig{}}
	for name, d := range c.em.Devices {
		bs.origConfigs[name] = d.Config().Clone()
	}
	bs.baseline = c.em.Save()
	err := b.tr.do("checkpoint.snapshot", -1, func() (err error) {
		bs.snap, err = c.em.Checkpoint()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return bs, nil
}

// checkInvariants rejects a spec whose invariants rehearse cannot
// evaluate: it knows only the fabric-wide assert-no-blackhole.
func checkInvariants(sp *scenario.Spec) error {
	for _, inv := range sp.Invariants {
		if inv.Op != scenario.OpAssertNoBlackhole || len(inv.Devices) > 0 {
			return fmt.Errorf("spec %s: invariant %s not supported by the direct path", sp.Name, inv.Op)
		}
	}
	return nil
}

// rehearse runs sp's steps on a fork of bs, as scenario.Converged.Run
// does, with a span around every layer call: fork, each fault, each
// re-convergence, each no-blackhole sweep, the FIB diff and the teardown.
// It returns an error for any failed step or check.
func (b *bench) rehearse(bs *base, sp *scenario.Spec, opIdx int) error {
	var em *core.Emulation
	err := b.tr.do("checkpoint.fork", opIdx, func() (err error) {
		em, err = bs.orch.Fork(bs.snap)
		return err
	})
	if err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	defer func() { _ = b.tr.do("core.teardown", opIdx, func() error { em.Teardown(); return nil }) }()
	sweep := len(sp.Invariants) > 0
	for i := range sp.Steps {
		st := &sp.Steps[i]
		var err error
		switch st.Op {
		case scenario.OpSetLink:
			err = b.tr.do("core.fault", opIdx, func() error {
				da, ia, _ := strings.Cut(st.A, ":")
				db, ib, _ := strings.Cut(st.B, ":")
				return em.SetLink(da, ia, db, ib, *st.Up)
			})
		case scenario.OpInjectVMFailure:
			err = b.tr.do("core.fault", opIdx, func() error {
				_, err := em.InjectVMFailure(st.Device)
				return err
			})
		case scenario.OpReloadConfig:
			cfg := bs.origConfigs[st.Device].Clone()
			if st.ACL != nil {
				if err = applyACL(cfg, st.ACL); err != nil {
					break
				}
			}
			err = b.tr.do("core.fault", opIdx, func() error { return em.ReloadDevice(st.Device, cfg, nil) })
		case scenario.OpWaitConverge:
			err = b.tr.do("core.reconverge", opIdx, func() error {
				_, err := em.RunUntilConverged(0)
				return err
			})
			if err == nil && sweep {
				var bad []string
				_ = b.tr.do("batfish.sweep", opIdx, func() error {
					pairs := sweepPairs(em, bs.net)
					b.layer["batfish.pairs"] = float64(len(pairs))
					bad = blackholes(em, pairs)
					return nil
				})
				if len(bad) > 0 {
					err = fmt.Errorf("%d blackholed pairs, first %s", len(bad), bad[0])
				}
			}
		case scenario.OpAssertRecoveredWithin:
			rec := em.Recoveries()
			if len(rec) < st.Recoveries {
				err = fmt.Errorf("%d recoveries, want >= %d", len(rec), st.Recoveries)
			}
			for _, d := range rec {
				if d > st.Duration.Std() {
					err = fmt.Errorf("recovery took %s, bound %s", d, st.Duration.Std())
				}
			}
		case scenario.OpAssertFIBDiff:
			var diffs map[string][]rib.Diff
			_ = b.tr.do("core.fib_diff", opIdx, func() error {
				diffs = em.DiffAgainst(bs.baseline)
				return nil
			})
			if len(diffs) > 0 {
				err = fmt.Errorf("forwarding state not restored on %d devices", len(diffs))
			}
		default:
			err = fmt.Errorf("step op %s not supported by the direct path", st.Op)
		}
		if err != nil {
			return fmt.Errorf("%s step %d (%s): %w", sp.Name, i+1, st.Op, err)
		}
	}
	if n := em.FaultsPending(); n > 0 {
		return fmt.Errorf("%s: %d injected faults never fired", sp.Name, n)
	}
	return nil
}

// applyACL adds a deny-source ACL to cfg, bound inbound on every
// non-loopback interface when asked, as a reload-config ACL patch does.
func applyACL(cfg *config.DeviceConfig, patch *scenario.ACLPatch) error {
	pfx, err := netpkt.ParsePrefix(patch.DenySrc)
	if err != nil {
		return err
	}
	if cfg.ACLs == nil {
		cfg.ACLs = map[string]*dataplane.ACL{}
	}
	cfg.ACLs[patch.Name] = &dataplane.ACL{
		Name:          patch.Name,
		Rules:         []dataplane.ACLRule{{Action: dataplane.ACLDeny, Src: &pfx}},
		DefaultAction: dataplane.ACLPermit,
	}
	if patch.BindIngress {
		for _, ic := range cfg.Interfaces {
			if ic.Name != "lo" {
				cfg.Bindings = append(cfg.Bindings, config.ACLBinding{
					ACLName: patch.Name, Interface: ic.Name, Direction: config.In,
				})
			}
		}
	}
	return nil
}

// pair is one reachability query: from an emulated fabric device to a host
// in a server prefix another device originates.
type pair struct {
	src string
	dst netpkt.IP
}

// sweepPairs lists the queries the no-blackhole invariant makes: every
// emulated internal or boundary device toward one host in every prefix the
// fabric originates, except its own.
func sweepPairs(em *core.Emulation, net *topo.Network) []pair {
	plan := em.Plan()
	fabric := append(append([]string{}, plan.Internal...), plan.Boundary...)
	sort.Strings(fabric)
	type dest struct {
		owner string
		ip    netpkt.IP
	}
	var dests []dest
	for _, name := range fabric {
		d := net.Device(name)
		if d == nil {
			continue
		}
		for _, p := range d.Originated {
			host := p.Addr
			if p.Len < 31 {
				host++
			}
			dests = append(dests, dest{name, host})
		}
	}
	var out []pair
	for _, src := range fabric {
		if em.Devices[src] == nil {
			continue
		}
		for _, d := range dests {
			if d.owner != src {
				out = append(out, pair{src, d.ip})
			}
		}
	}
	return out
}

// blackholes walks the live FIBs for every pair and returns the ones not
// delivered.
func blackholes(em *core.Emulation, pairs []pair) []string {
	cfgs := make(map[string]*config.DeviceConfig, len(em.Devices))
	for name, c := range em.Configs() {
		cfgs[name] = c
	}
	for name, d := range em.Devices {
		if c := d.Config(); c != nil {
			cfgs[name] = c
		}
	}
	w := batfish.NewLiveWalker(func(dev string, dst netpkt.IP) (*rib.Entry, bool) {
		d := em.Devices[dev]
		if d == nil {
			return nil, false
		}
		return d.FIB().Lookup(dst)
	}, cfgs)
	var bad []string
	for _, p := range pairs {
		if !w.Delivered(p.src, p.dst) {
			bad = append(bad, fmt.Sprintf("%s -> %s", p.src, p.dst))
		}
	}
	return bad
}
