package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"crystalnet/internal/scenario"
	"crystalnet/internal/topo"
)

// chaosSDC is scenarios/chaos_sdc.json as of this benchmark's definition:
// S-DC with its WAN under the no-blackhole invariant. It is a copy so a
// later edit to the scenario library cannot change the benchmark's input.
//
//go:embed inputs/chaos_sdc.json
var chaosSDC []byte

const (
	// chaosSequences is how many distinct fault sequences one seed
	// generates. Operation i runs sequence i mod chaosSequences, so every
	// sequence that runs twice in a run is checked for repeat-exact bytes.
	chaosSequences = 64
	// chaosDigestSeqs is how many sequences the printed digest covers.
	chaosDigestSeqs = 8
	// faultsPerSequence matches scenario.Chaos's default: two of each
	// fault kind.
	faultsPerSequence = 6
)

// runSDCChaos is the sdc-chaos workload: converge S-DC once (set-up), then
// run seeded fault sequences, each on a fork of the converged baseline,
// from nproc closed-loop workers. This is crystalctl chaos -reuse. Fork,
// incremental re-convergence after small deltas and the no-blackhole sweep
// do most of the work here, and almost none in mdc-cold.
func runSDCChaos(b *bench) error {
	sp, err := scenario.Parse(chaosSDC)
	if err != nil {
		return err
	}
	if err := checkInvariants(sp); err != nil {
		return err
	}
	sp.Seed = subSeed(b.seed, "emulation")
	b.info["emulation_seed"] = sp.Seed
	net, _, err := sp.BuildNetwork()
	if err != nil {
		return err
	}
	seqs, err := faultSequences(sp, net, b.seed)
	if err != nil {
		return err
	}

	var cv *scenario.Converged
	for rep := 0; rep < setupReps; rep++ {
		cv = nil
		err := b.timeSetup(func() (err error) {
			coldIntern()
			cv, err = scenario.Converge(sp, scenario.Options{})
			return err
		})
		if err != nil {
			return err
		}
	}
	var bs *base
	if b.traced {
		// The traced operations fork a baseline converged through core
		// directly, so that convergence is spanned too.
		c, err := b.prepare(net, sp.Seed, -1)
		if err != nil {
			return err
		}
		if err := b.converge(c, -1); err != nil {
			return err
		}
		b.recordConvergence(c)
		if bs, err = b.checkpointBase(c); err != nil {
			return err
		}
	}
	b.liveHeap()

	var mu sync.Mutex
	digests := make([]string, len(seqs))
	plain := func(i int) (time.Duration, error) {
		k := i % len(seqs)
		t0 := time.Now()
		rep, err := cv.Run(seqs[k], scenario.Options{})
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		if !rep.Passed {
			return d, fmt.Errorf("%s failed: %s", seqs[k].Name, firstFailure(rep))
		}
		sum := sha256.Sum256(rep.JSON())
		digest := hex.EncodeToString(sum[:])
		mu.Lock()
		defer mu.Unlock()
		if digests[k] == "" {
			digests[k] = digest
		} else if digests[k] != digest {
			return d, fmt.Errorf("%s: report bytes differ between two runs of the same sequence", seqs[k].Name)
		}
		return d, nil
	}
	traced := func(i int) (time.Duration, error) {
		t0 := time.Now()
		err := b.rehearse(bs, seqs[i%len(seqs)], i)
		return time.Since(t0), err
	}
	if err := b.measure(b.nproc(), plain, traced); err != nil {
		return err
	}

	// The campaign digest covers the first chaosDigestSeqs sequences, which
	// a run at the BENCHMARK.json length reaches many times over; the same
	// seed gives the same digest from run to run and at any worker count.
	all := sha256.New()
	for _, d := range digests[:chaosDigestSeqs] {
		if d == "" {
			b.info["chaos_digest"] = fmt.Sprintf("incomplete: fewer than %d sequences ran", chaosDigestSeqs)
			return nil
		}
		all.Write([]byte(d))
	}
	b.info["chaos_digest"] = hex.EncodeToString(all.Sum(nil))[:16]
	return nil
}

// faultSequences generates the run's fault sequences from the seed, with
// scenario.Chaos's candidate rules: only links between fabric layers flap,
// any fabric device's VM may be killed, and ToRs and leaves take a benign
// ACL reload that denies a documentation prefix. Every fault is repaired
// before the next, each followed by convergence and the invariant sweep,
// and the sequence ends by asserting forwarding state is restored.
//
// Unlike scenario.Chaos, which draws each fault's kind at random, every
// sequence holds each kind equally often in a seeded order: the kinds
// differ several-fold in cost, so a random mix would make a run's cost
// depend on the seed more than on the code under test.
func faultSequences(base *scenario.Spec, net *topo.Network, seed int64) ([]*scenario.Spec, error) {
	fabric := func(l topo.Layer) bool {
		switch l {
		case topo.LayerToR, topo.LayerLeaf, topo.LayerSpine, topo.LayerBorder:
			return true
		}
		return false
	}
	var links [][2]string
	for _, l := range net.Links {
		if fabric(l.A.Device.Layer) && fabric(l.B.Device.Layer) {
			links = append(links, [2]string{l.A.Device.Name + ":" + l.A.Name, l.B.Device.Name + ":" + l.B.Name})
		}
	}
	var killable, perturbable []string
	for _, d := range net.Devices() {
		if fabric(d.Layer) {
			killable = append(killable, d.Name)
		}
		if d.Layer == topo.LayerToR || d.Layer == topo.LayerLeaf {
			perturbable = append(perturbable, d.Name)
		}
	}
	if len(links) == 0 || len(killable) == 0 || len(perturbable) == 0 {
		return nil, fmt.Errorf("fabric has no fault candidates")
	}
	benign := []string{"192.0.2.0/24", "198.51.100.0/25", "203.0.113.0/24", "198.18.0.0/15"}

	up, down := true, false
	out := make([]*scenario.Spec, chaosSequences)
	for k := range out {
		sp := base.Clone()
		sp.Name = fmt.Sprintf("%s/seq-%03d", base.Name, k)
		rng := rand.New(rand.NewSource(subSeed(seed, fmt.Sprintf("faults/%d", k))))
		kinds := make([]int, faultsPerSequence)
		for f := range kinds {
			kinds[f] = f % 3
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		kills := 0
		for f, kind := range kinds {
			switch kind {
			case 0:
				l := links[rng.Intn(len(links))]
				sp.Steps = append(sp.Steps,
					scenario.Step{Op: scenario.OpSetLink, Label: fmt.Sprintf("fault %d: flap", f), A: l[0], B: l[1], Up: &down},
					scenario.Step{Op: scenario.OpWaitConverge},
					scenario.Step{Op: scenario.OpSetLink, A: l[0], B: l[1], Up: &up},
					scenario.Step{Op: scenario.OpWaitConverge})
			case 1:
				kills++
				sp.Steps = append(sp.Steps,
					scenario.Step{Op: scenario.OpInjectVMFailure, Label: fmt.Sprintf("fault %d: vm-kill", f), Device: killable[rng.Intn(len(killable))]},
					scenario.Step{Op: scenario.OpWaitConverge},
					scenario.Step{Op: scenario.OpAssertRecoveredWithin, Duration: scenario.Duration(5 * time.Minute), Recoveries: kills})
			case 2:
				dev := perturbable[rng.Intn(len(perturbable))]
				sp.Steps = append(sp.Steps,
					scenario.Step{
						Op: scenario.OpReloadConfig, Label: fmt.Sprintf("fault %d: perturb", f), Device: dev,
						ACL: &scenario.ACLPatch{Name: "CHAOS-GUARD", DenySrc: benign[rng.Intn(len(benign))], BindIngress: true},
					},
					scenario.Step{Op: scenario.OpWaitConverge},
					scenario.Step{Op: scenario.OpReloadConfig, Device: dev, FromBaseline: true},
					scenario.Step{Op: scenario.OpWaitConverge})
			}
		}
		sp.Steps = append(sp.Steps, scenario.Step{Op: scenario.OpAssertFIBDiff, Label: "forwarding state restored"})
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		out[k] = sp
	}
	return out, nil
}

// firstFailure names the first failed step or invariant of a report.
func firstFailure(rep *scenario.Report) string {
	if rep.Error != "" {
		return rep.Error
	}
	for _, st := range rep.Steps {
		if !st.Pass {
			return fmt.Sprintf("step %d %s: %s", st.Index, st.Op, st.Detail)
		}
		for _, c := range st.Invariants {
			if !c.Pass {
				return fmt.Sprintf("step %d invariant %s: %s", st.Index, c.Op, c.Detail)
			}
		}
	}
	if rep.PendingFaults > 0 {
		return fmt.Sprintf("%d faults never fired", rep.PendingFaults)
	}
	return "not passed"
}
