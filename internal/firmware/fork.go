package firmware

import (
	"crystalnet/internal/bgp"
	"crystalnet/internal/checkpoint"
	"crystalnet/internal/cloud"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/ospf"
	"crystalnet/internal/phynet"
	"crystalnet/internal/rib"
	"crystalnet/internal/sim"
)

// Fork returns a deep copy of the device for a forked emulation: bound to
// the fork's engine, fabric, container clone and VM clone, with all routing
// and dataplane state deep-copied and every protocol hook closure rebuilt
// against the clone (the hooks constructed at boot close over the parent
// and must not leak into the fork). The source device is read strictly
// read-only, so concurrent forks are safe.
//
// The device's configuration pointer is shared copy-on-write: config
// reloads replace the pointer (ReloadConfig installs a fresh
// *config.DeviceConfig), they never mutate the shared value in place.
func (d *Device) Fork(eng *sim.Engine, fabric *phynet.Fabric, container *phynet.Container, vm *cloud.VM) *Device {
	c := &Device{
		Name:  d.Name,
		Image: d.Image,

		eng:       eng,
		fabric:    fabric,
		container: container,
		vm:        vm,

		cfg:   d.cfg,
		state: d.state,
		epoch: d.epoch,

		peerIface:   checkpoint.CloneMap(d.peerIface),
		peerIP:      checkpoint.CloneMap(d.peerIP),
		localIPs:    checkpoint.CloneMap(d.localIPs),
		ifaceAddr:   checkpoint.CloneMap(d.ifaceAddr),
		ospfIfaces:  checkpoint.CloneMap(d.ospfIfaces),
		arp:         checkpoint.CloneMap(d.arp),
		arpAttempts: checkpoint.CloneMap(d.arpAttempts),
		peerWasUp:   checkpoint.CloneMap(d.peerWasUp),
		// Forks are taken at quiescence, so every receive queue is empty.
		bgpRx: map[int]*rxQueue{},

		flaps: d.flaps,

		Captures:       checkpoint.CloneSlice(d.Captures),
		Logs:           checkpoint.CloneSlice(d.Logs),
		BGPUpdatesSent: d.BGPUpdatesSent,
		LastFIBChange:  d.LastFIBChange,
	}
	// Queued frames are deep-copied: frame delivery rewrites the Ethernet
	// header in the buffer once ARP resolves, so sharing the bytes would
	// let a fork scribble on its parent's queue.
	if d.arpPending != nil {
		c.arpPending = make(map[netpkt.IP][][]byte, len(d.arpPending))
		for ip, frames := range d.arpPending {
			nf := make([][]byte, len(frames))
			for i, fr := range frames {
				nf[i] = append([]byte(nil), fr...)
			}
			c.arpPending[ip] = nf
		}
	}
	if d.fib != nil {
		c.fib = d.fib.Clone()
	}
	if d.fwd != nil {
		c.fwd = d.fwd.Clone(c.fib)
	}
	if d.asic != nil {
		c.asic = d.asic.Clone()
	}
	if d.bgp != nil {
		// The hooks mirror startBGP's exactly, rebound to the clone.
		c.bgp = d.bgp.Fork(bgpClock{eng}, bgp.Hooks{
			SendToPeer:   c.sendBGP,
			InstallRoute: c.installBGPRoute,
			RemoveRoute: func(p netpkt.Prefix) {
				if c.fib != nil {
					c.fib.Remove(p)
					c.LastFIBChange = c.eng.Now()
				}
			},
			SessionEvent: c.onSessionEvent,
			Logf:         func(f string, a ...any) { c.logf(f, a...) },
			Rec:          eng.Recorder(),
		})
	}
	if d.peerByIP != nil {
		c.peerByIP = make(map[netpkt.IP]*bgp.Peer, len(d.peerByIP))
		for ip, p := range d.peerByIP {
			c.peerByIP[ip] = c.bgp.Peer(p.Index)
		}
	}
	if d.osp != nil {
		// Mirrors startOSPF's hooks, rebound to the clone.
		c.osp = d.osp.Fork(ospfClock{eng}, ospf.Hooks{
			Send: c.sendOSPF,
			InstallRoute: func(p netpkt.Prefix, nhs []rib.NextHop) error {
				return c.fib.InstallHops(p, rib.ProtoOSPF, nhs)
			},
			RemoveRoute: func(p netpkt.Prefix) { c.fib.Remove(p) },
			Logf:        func(f string, a ...any) { c.logf(f, a...) },
			Rec:         eng.Recorder(),
		})
	}
	// Re-attach the frame handler exactly when the parent's firmware was
	// live on the wire.
	if d.container != nil && d.container.Attached() {
		container.Attach(c.handleFrame)
	}
	return c
}
