package core

import (
	"fmt"
	"sort"

	"crystalnet/internal/checkpoint"
	"crystalnet/internal/cloud"
	"crystalnet/internal/firmware"
	"crystalnet/internal/phynet"
	"crystalnet/internal/sim"
	"crystalnet/internal/speaker"
)

// Checkpoint captures the emulation at quiescence so it can be forked.
//
// The snapshot itself is cheap: it records the engine's serializable state
// and freezes a reference to this emulation; the deep copy happens in
// Orchestrator.Fork. Until every intended fork has been taken, the parent
// emulation must not be advanced, reconfigured or cleared — forks read it
// as an immutable baseline.
//
// It fails unless the event queue is empty (RunUntilConverged drains it):
// pending events are closures that cannot be duplicated into a fork, and
// an empty queue is also what guarantees no protocol timer or boot
// callback is in flight.
func (em *Emulation) Checkpoint() (*checkpoint.Snapshot, error) {
	if em.cleared {
		return nil, fmt.Errorf("core: cannot checkpoint a cleared emulation")
	}
	if em.vmsPending > 0 || em.buildsPending > 0 {
		return nil, fmt.Errorf("core: cannot checkpoint before mockup completes (%d VMs, %d builds pending)",
			em.vmsPending, em.buildsPending)
	}
	st, err := em.orch.Eng.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint requires a quiescent emulation: %w", err)
	}
	// Seal the BGP attribute-fingerprint memos now, single-threaded: after
	// this every shared *Attrs is fully immutable, so concurrent forks can
	// alias the parent's attribute objects instead of cloning them.
	for _, d := range em.Devices {
		if r := d.BGP(); r != nil {
			r.SealAttrs()
		}
	}
	return &checkpoint.Snapshot{TakenAt: st.Now, Engine: st, Origin: em}, nil
}

// Orchestrator returns the orchestrator driving this emulation. Forked
// emulations own a private orchestrator (engine + cloud), which is how
// they run concurrently with their parent and siblings.
func (em *Emulation) Orchestrator() *Orchestrator { return em.orch }

// Fork materializes an independent emulation from a snapshot taken on this
// orchestrator: a fresh engine restored to the captured clock and RNG
// stream, plus deep copies of every piece of mutable state — cloud VMs,
// the phynet overlay, device firmware with its routing stacks, speakers,
// the management plane and telemetry counters. Heavy immutable structures
// (topology, parsed configs, BGP policies and path attributes' AS paths)
// are shared copy-on-write with the parent.
//
// Fork only reads the parent, so any number of forks can be taken from one
// snapshot concurrently. Each fork then behaves exactly as a fresh same-
// seed run would from the moment the snapshot was taken: identical event
// ordering, identical jitter draws, identical reports.
func (o *Orchestrator) Fork(snap *checkpoint.Snapshot) (*Emulation, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil snapshot")
	}
	if snap.Invalidated() {
		return nil, fmt.Errorf("core: snapshot has been invalidated (its checkpoint was evicted or released)")
	}
	parent, ok := snap.Origin.(*Emulation)
	if !ok {
		return nil, fmt.Errorf("core: snapshot origin is not a core emulation")
	}
	if parent.orch != o {
		return nil, fmt.Errorf("core: snapshot belongs to a different orchestrator")
	}

	eng := sim.NewEngineFrom(snap.Engine)
	// The recorder forks with the engine, before any state that caches
	// metric handles (device firmware) is copied: the fork's trace starts
	// with everything recorded up to the snapshot and diverges from there,
	// exactly like the rest of the emulation.
	eng.SetRecorder(o.Eng.Recorder().Fork())
	cloudFork, vmMap := o.Cloud.Fork(eng)
	fabric, ifaceMap, ctMap := parent.Fabric.Fork(eng)

	em := &Emulation{
		orch: &Orchestrator{Eng: eng, Cloud: cloudFork, opts: o.opts},
		prep: parent.prep.fork(vmMap),

		Fabric:     fabric,
		Devices:    make(map[string]*firmware.Device, len(parent.Devices)),
		Speakers:   make(map[string]*speaker.Speaker, len(parent.Speakers)),
		Injector:   parent.Injector.Fork(eng),
		containers: make(map[string]*phynet.Container, len(parent.containers)),
		vmOf:       make(map[string]*cloud.VM, len(parent.vmOf)),
		vlinks:     make(map[linkKey]*phynet.VirtualLink, len(parent.vlinks)),

		MockupStart:    parent.MockupStart,
		NetworkReadyAt: parent.NetworkReadyAt,
		ClearedAt:      parent.ClearedAt,

		Alerts:       checkpoint.CloneSlice(parent.Alerts),
		recoveries:   checkpoint.CloneSlice(parent.recoveries),
		degraded:     checkpoint.CloneSlice(parent.degraded),
		phasesTraced: parent.phasesTraced,
		// The traffic matrix is all value-typed state, so the fork's copy
		// settles exactly as a fresh same-seed run would from here.
		traffic: parent.traffic.Fork(),

		// Quiescence guarantees no recovery episode is in flight (a pending
		// reboot or rebuild would be a queued event), so recovering starts
		// empty. Queued faults, however, can outlive quiescence — a fault
		// queued on a VM that never came back — and their *count* is carried
		// over for lost-fault accounting; the waiter closures themselves
		// cannot cross a fork (cloud.Fork documents this).
		recovering:    map[*cloud.VM]*vmRecovery{},
		pendingFaults: make(map[*cloud.VM]int, len(parent.pendingFaults)),
		linkDown:      make(map[linkKey]int, len(parent.linkDown)),
	}
	for vm, n := range parent.pendingFaults {
		em.pendingFaults[vmMap[vm]] = n
	}
	for k, n := range parent.linkDown {
		em.linkDown[k] = n
	}
	for name, ct := range parent.containers {
		em.containers[name] = ctMap[ct]
	}
	for name, vm := range parent.vmOf {
		em.vmOf[name] = vmMap[vm]
	}
	for k, vl := range parent.vlinks {
		em.vlinks[k] = ifaceMap[vl.A].Link()
	}
	// Sorted for reproducible log/alert interleaving should a fork method
	// ever emit one; forking draws no events or randomness either way.
	names := make([]string, 0, len(parent.Devices))
	for name := range parent.Devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := parent.Devices[name]
		em.Devices[name] = d.Fork(eng, fabric, em.containers[name], em.vmOf[name])
	}
	for name, sp := range parent.Speakers {
		em.Speakers[name] = sp.Fork(em.Devices[name])
	}
	em.Mgmt = parent.Mgmt.Fork(func(name string) *firmware.Device { return em.Devices[name] })
	cloudFork.OnFailure = em.onVMFailure
	cloudFork.OnReplace = em.onVMReplaced
	cloudFork.OnBootAborted = em.onBootAborted
	return em, nil
}

// fork deep-copies the preparation's mutable bookkeeping for a forked
// emulation, remapping VM placements through vmMap. The heavyweight values
// — topology, parsed configs, vendor images, recorded speaker routes — are
// shared: mutations go through pointer replacement (config reloads) or are
// additive on the copied containers (device attachment), never in-place.
func (p *Preparation) fork(vmMap map[*cloud.VM]*cloud.VM) *Preparation {
	c := &Preparation{
		Input:       p.Input,
		Configs:     checkpoint.CloneMap(p.Configs),
		Images:      checkpoint.CloneMap(p.Images),
		Routes:      checkpoint.CloneMap(p.Routes),
		assignments: checkpoint.CloneMap(p.assignments),
		hardware:    checkpoint.CloneMap(p.hardware),
		SafetyErr:   p.SafetyErr,
	}
	if p.Plan != nil {
		plan := *p.Plan
		plan.Emulated = checkpoint.CloneMap(p.Plan.Emulated)
		plan.Internal = checkpoint.CloneSlice(p.Plan.Internal)
		plan.Boundary = checkpoint.CloneSlice(p.Plan.Boundary)
		plan.Speakers = checkpoint.CloneSlice(p.Plan.Speakers)
		plan.Excluded = checkpoint.CloneSlice(p.Plan.Excluded)
		c.Plan = &plan
	}
	if p.groupVMs != nil {
		c.groupVMs = make(map[string][]*cloud.VM, len(p.groupVMs))
		for g, vms := range p.groupVMs {
			nv := make([]*cloud.VM, len(vms))
			for i, vm := range vms {
				nv[i] = vmMap[vm]
			}
			c.groupVMs[g] = nv
		}
	}
	return c
}
