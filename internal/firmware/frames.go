package firmware

import (
	"bytes"
	"encoding/binary"
	"time"

	"crystalnet/internal/bgp"
	"crystalnet/internal/dataplane"
	"crystalnet/internal/netpkt"
	"crystalnet/internal/p4"
)

// BGPPort is the conventional BGP transport port; the emulator carries BGP
// messages directly as the payload of protocol-6 datagrams over the virtual
// links (the byte-level message codec is exercised on every hop; the TCP
// reliable-stream machinery is subsumed by the reliable virtual link).
const BGPPort = 179

// arpRetryInterval and arpMaxAttempts bound next-hop resolution.
const (
	arpRetryInterval = 3 * time.Second
	arpMaxAttempts   = 5
)

// sendBGP transmits an encoded BGP message to the peer with the given index.
func (d *Device) sendBGP(peerIdx int, data []byte) {
	iface := d.peerIface[peerIdx]
	dst := d.peerIP[peerIdx]
	local, ok := d.ifaceAddr[iface]
	if !ok {
		return
	}
	d.BGPUpdatesSent++
	pkt := netpkt.IPv4Packet{
		TTL: 64, Protocol: netpkt.ProtoTCP,
		Src: local.Addr, Dst: dst,
		Payload: data,
	}
	d.sendIPFrame(iface, dst, pkt.MarshalFramed(netpkt.EthernetHeaderLen))
}

// sendOSPF transmits an OSPF packet out the instance's interface idx. dst 0
// multicasts to the segment (broadcast MAC, no ARP needed).
func (d *Device) sendOSPF(ospfIdx int, _ netpkt.IP, data []byte) {
	var ifaceName string
	for name, idx := range d.ospfIfaces {
		if idx == ospfIdx {
			ifaceName = name
			break
		}
	}
	if ifaceName == "" {
		return
	}
	local, ok := d.ifaceAddr[ifaceName]
	if !ok {
		return
	}
	pkt := netpkt.IPv4Packet{
		TTL: 1, Protocol: netpkt.ProtoOSPF,
		Src: local.Addr, Dst: netpkt.IPFromBytes(224, 0, 0, 5),
		Payload: data,
	}
	vi := d.container.Iface(ifaceName)
	if vi == nil {
		return
	}
	frame := pkt.MarshalFramed(netpkt.EthernetHeaderLen)
	netpkt.PutEthernetHeader(frame, netpkt.BroadcastMAC, vi.MAC, netpkt.EtherTypeIPv4)
	d.fabric.Send(vi, frame)
}

// sendIPFrame routes an IP packet out the given interface towards an on-link
// next hop, resolving its MAC via ARP (queueing while unresolved). frame is
// a single buffer holding the encoded IP packet at offset EthernetHeaderLen;
// the Ethernet header in front is filled in here once the MAC is known, so
// the whole send path costs one allocation. Ownership of frame passes to the
// fabric (or to the ARP pending queue).
func (d *Device) sendIPFrame(iface string, nextHop netpkt.IP, frame []byte) {
	vi := d.container.Iface(iface)
	if vi == nil {
		return
	}
	mac, ok := d.arp[nextHop]
	if !ok {
		d.arpPending[nextHop] = append(d.arpPending[nextHop], frame)
		d.requestARP(iface, nextHop, 0)
		return
	}
	netpkt.PutEthernetHeader(frame, mac, vi.MAC, netpkt.EtherTypeIPv4)
	d.fabric.Send(vi, frame)
}

// requestARP broadcasts an ARP request for target, retrying a few times.
func (d *Device) requestARP(iface string, target netpkt.IP, attempt int) {
	if attempt >= arpMaxAttempts {
		d.logf("arp: resolution of %s failed, dropping %d queued packets", target, len(d.arpPending[target]))
		delete(d.arpPending, target)
		return
	}
	if d.Image.Bugs.ARPRefreshBroken && d.epoch > 1 {
		// §2: after a peering/config change (reload), ARP refresh silently
		// stops working; queued packets rot.
		d.logf("BUG arp-refresh: suppressed ARP request for %s", target)
		return
	}
	if attempt > 0 && d.arpAttempts[target] >= attempt+1 {
		return // a concurrent resolution already progressed
	}
	d.arpAttempts[target] = attempt + 1
	vi := d.container.Iface(iface)
	local, ok := d.ifaceAddr[iface]
	if vi == nil || !ok {
		return
	}
	req := &netpkt.ARPPacket{
		Op: netpkt.ARPRequest, SenderMAC: vi.MAC, SenderIP: local.Addr, TargetIP: target,
	}
	frame := &netpkt.EthernetFrame{Dst: netpkt.BroadcastMAC, Src: vi.MAC, EtherType: netpkt.EtherTypeARP, Payload: req.Marshal()}
	d.fabric.Send(vi, frame.Marshal())
	epoch := d.epoch
	d.eng.After(arpRetryInterval, func() {
		if d.epoch != epoch || d.state != DeviceRunning {
			return
		}
		if _, resolved := d.arp[target]; resolved {
			return
		}
		if len(d.arpPending[target]) == 0 {
			return
		}
		d.requestARP(iface, target, attempt+1)
	})
}

// handleFrame is the container's frame handler — the device's "NIC receive
// interrupt".
func (d *Device) handleFrame(iface string, data []byte) {
	if d.state != DeviceRunning {
		return
	}
	eth, err := netpkt.UnmarshalEthernet(data)
	if err != nil {
		return
	}
	vi := d.container.Iface(iface)
	if vi == nil {
		return
	}
	if !eth.Dst.IsBroadcast() && eth.Dst != vi.MAC {
		return // not for us
	}
	switch eth.EtherType {
	case netpkt.EtherTypeARP:
		d.handleARP(iface, vi.MAC, eth.Payload)
	case netpkt.EtherTypeIPv4:
		ip, err := netpkt.UnmarshalIPv4(eth.Payload)
		if err != nil {
			return
		}
		d.handleIP(iface, ip)
	}
}

func (d *Device) handleARP(iface string, myMAC netpkt.MAC, payload []byte) {
	if d.asic != nil {
		// SoftASIC images decide the trap in the P4 pipeline (ARP parses
		// as protocol 0 in the header vector).
		res := d.asic.Run(p4.NewPacket(0, 0, 0, 0, 0, 0, 0))
		if res.Verdict != p4.PuntedToCPU {
			// §7 Case 2: the dev build's pipeline lacks the ARP trap entry;
			// the frame never reaches the CPU.
			return
		}
	} else if d.Image.Bugs.ARPTrapBroken {
		// Fixed-function images model the same defect as a dead trap.
		return
	}
	if d.Image.Bugs.ARPRefreshBroken && d.epoch > 1 {
		// §2: after a peering-configuration change the ARP machinery wedges
		// entirely — stale cache entries keep old sessions alive, but no
		// new resolution happens in either direction.
		return
	}
	arp, err := netpkt.UnmarshalARP(payload)
	if err != nil {
		return
	}
	local, ok := d.ifaceAddr[iface]
	if !ok {
		return
	}
	switch arp.Op {
	case netpkt.ARPRequest:
		if arp.TargetIP != local.Addr {
			return
		}
		// Learn the asker and reply.
		d.learnARP(arp.SenderIP, arp.SenderMAC)
		reply := &netpkt.ARPPacket{
			Op: netpkt.ARPReply, SenderMAC: myMAC, SenderIP: local.Addr,
			TargetMAC: arp.SenderMAC, TargetIP: arp.SenderIP,
		}
		vi := d.container.Iface(iface)
		frame := &netpkt.EthernetFrame{Dst: arp.SenderMAC, Src: myMAC, EtherType: netpkt.EtherTypeARP, Payload: reply.Marshal()}
		d.fabric.Send(vi, frame.Marshal())
	case netpkt.ARPReply:
		d.learnARP(arp.SenderIP, arp.SenderMAC)
	}
}

// learnARP caches a binding and flushes packets queued on it.
func (d *Device) learnARP(ip netpkt.IP, mac netpkt.MAC) {
	d.arp[ip] = mac
	delete(d.arpAttempts, ip)
	pending := d.arpPending[ip]
	if len(pending) == 0 {
		return
	}
	delete(d.arpPending, ip)
	// Re-route each queued frame now that the next hop resolves. The
	// egress interface is recomputed (the FIB may have moved meanwhile).
	for _, frame := range pending {
		iface := d.ifaceForOnLink(ip)
		if iface == "" {
			continue
		}
		d.sendIPFrame(iface, ip, frame)
	}
}

// ifaceForOnLink returns the interface whose subnet covers the on-link IP.
func (d *Device) ifaceForOnLink(ip netpkt.IP) string {
	for name, addr := range d.ifaceAddr {
		sub := netpkt.Prefix{Addr: addr.Addr & addr.MaskIP(), Len: addr.Len}
		if sub.Contains(ip) && name != "lo" {
			return name
		}
	}
	return ""
}

// handleIP dispatches a received IP packet: local control-plane delivery or
// data-plane forwarding.
func (d *Device) handleIP(iface string, ip *netpkt.IPv4Packet) {
	meta := metaFromIP(ip)
	if flow, seq, ok := telemetrySignature(ip); ok {
		// Capture at ingress with the forwarding decision (§3.3).
		dec := d.fwd.Forward(iface, meta)
		d.capture(iface, flow, seq, *meta, dec)
		if dec.Verdict != dataplane.VerdictForward {
			return
		}
		d.emitForward(ip, dec)
		return
	}

	if d.localIPs[ip.Dst] || ip.Protocol == netpkt.ProtoOSPF {
		d.handleLocal(iface, ip)
		return
	}
	dec := d.fwd.Forward(iface, meta)
	if dec.Verdict != dataplane.VerdictForward {
		return
	}
	d.emitForward(ip, dec)
}

// emitForward decrements TTL, re-encodes and transmits toward the decided
// next hop.
func (d *Device) emitForward(ip *netpkt.IPv4Packet, dec dataplane.Decision) {
	out := *ip
	out.TTL--
	nh := dec.NextHop
	if nh == 0 {
		nh = ip.Dst // directly connected destination
	}
	d.sendIPFrame(dec.Egress, nh, out.MarshalFramed(netpkt.EthernetHeaderLen))
}

// handleLocal terminates a packet addressed to the device.
func (d *Device) handleLocal(iface string, ip *netpkt.IPv4Packet) {
	switch ip.Protocol {
	case netpkt.ProtoTCP:
		// BGP: look up the session by remote address.
		if d.bgp == nil {
			return
		}
		peer := d.peerByIP[ip.Src]
		if peer == nil {
			return
		}
		// The payload can be retained across the deferred processing without
		// a copy: fabric frame buffers are never recycled (see Fabric.Send).
		d.handleBGP(peer, ip.Payload)
	case netpkt.ProtoOSPF:
		if d.osp == nil {
			return
		}
		if idx, ok := d.ospfIfaces[iface]; ok {
			data := ip.Payload
			src := ip.Src
			epoch := d.epoch
			d.submit(d.Image.MsgWork, func() {
				if d.epoch != epoch || d.state != DeviceRunning {
					return
				}
				d.osp.HandlePacket(idx, src, data)
			})
		}
	case netpkt.ProtoICMP:
		icmp, err := netpkt.UnmarshalICMP(ip.Payload)
		if err != nil || icmp.Type != netpkt.ICMPEchoRequest {
			return
		}
		reply := &netpkt.ICMPMessage{Type: netpkt.ICMPEchoReply, ID: icmp.ID, Seq: icmp.Seq, Payload: icmp.Payload}
		out := &netpkt.IPv4Packet{
			TTL: 64, Protocol: netpkt.ProtoICMP,
			Src: ip.Dst, Dst: ip.Src, Payload: reply.Marshal(),
		}
		d.sendFromSelf(out)
	}
}

// rxQueue is one BGP session's receive window: every message from the
// oldest one not handled yet onward, in arrival order.
type rxQueue struct {
	msgs []rxMsg // the window is msgs[head:]
	head int
	base uint64 // arrival sequence number of msgs[head]
	held int    // messages whose work is done but which wait for an earlier one
}

type rxMsg struct {
	data  []byte
	ready bool // its CPU work has completed
	done  bool // handed to the session
}

// maxIdleRx is the window capacity an idle session keeps for reuse; a
// full-table burst's larger array is released once it drains.
const maxIdleRx = 4

// handleBGP charges a received BGP message's processing to the VM CPU and
// hands it to the session once that work completes. Each message's work
// runs on whichever VM core frees first, so a message can finish before
// one that arrived earlier and queued behind a busier core. Messages that
// touch different prefixes may be handled in that completion order, but
// two UPDATEs for the same prefix never are: a withdraw overtaken by the
// later re-announce of its prefix would leave the prefix withdrawn while
// the sender believes it is advertised. A message that finishes ahead of
// an earlier one for the same prefix waits in the session's queue and is
// handled right after it.
func (d *Device) handleBGP(peer *bgp.Peer, data []byte) {
	q := d.bgpRx[peer.Index]
	if q == nil {
		q = &rxQueue{}
		d.bgpRx[peer.Index] = q
	}
	seq := q.base + uint64(len(q.msgs)-q.head)
	q.msgs = append(q.msgs, rxMsg{data: data})
	// Control-plane processing consumes VM CPU: base cost plus
	// per-route cost approximated from message size.
	work := d.Image.MsgWork + d.Image.RouteWork*float64(len(data))/5
	epoch := d.epoch
	d.submit(work, func() {
		if d.epoch != epoch || d.state != DeviceRunning {
			return
		}
		if seq == q.base && q.held == 0 {
			// In order, nothing held back: the common case.
			m := &q.msgs[q.head]
			m.done = true
			peer.HandleMessage(m.data)
		} else {
			q.msgs[q.head+int(seq-q.base)].ready = true
			q.held++
			d.drainBGP(peer, q, epoch)
		}
		if d.epoch != epoch || d.state != DeviceRunning {
			// A handled message crashed the firmware (CrashAfterFlaps):
			// the rest of the queue goes with the rest of the boot's state.
			return
		}
		q.pop()
	})
}

// pop retires handled messages from the front of the window.
func (q *rxQueue) pop() {
	for q.head < len(q.msgs) && q.msgs[q.head].done {
		q.msgs[q.head] = rxMsg{}
		q.head++
		q.base++
	}
	if q.head == len(q.msgs) {
		q.head = 0
		q.msgs = q.msgs[:0]
		if cap(q.msgs) > maxIdleRx {
			q.msgs = nil
		}
	}
}

// drainBGP hands the session every finished message that no earlier
// pending message shares a prefix with, in arrival order.
func (d *Device) drainBGP(peer *bgp.Peer, q *rxQueue, epoch int) {
	// Only messages ahead of the last finished one can hold anything back.
	last := -1
	for i := q.head; i < len(q.msgs); i++ {
		if m := &q.msgs[i]; m.ready && !m.done {
			last = i
		}
	}
	var blocked map[netpkt.Prefix]bool
	for i := q.head; i <= last && d.epoch == epoch && d.state == DeviceRunning; i++ {
		m := &q.msgs[i]
		if m.done {
			continue
		}
		// Prefixes are parsed only here, off the in-order fast path.
		if m.ready && (blocked == nil || !conflicts(bgp.UpdatePrefixes(m.data), blocked)) {
			m.done = true
			q.held--
			peer.HandleMessage(m.data)
			continue
		}
		for _, p := range bgp.UpdatePrefixes(m.data) {
			if blocked == nil {
				blocked = map[netpkt.Prefix]bool{}
			}
			blocked[p] = true
		}
	}
}

// conflicts reports whether any of pfx is in blocked.
func conflicts(pfx []netpkt.Prefix, blocked map[netpkt.Prefix]bool) bool {
	for _, p := range pfx {
		if blocked[p] {
			return true
		}
	}
	return false
}

// sendFromSelf routes a locally originated packet.
func (d *Device) sendFromSelf(ip *netpkt.IPv4Packet) {
	meta := metaFromIP(ip)
	dec := d.fwd.Forward("", meta)
	if dec.Verdict != dataplane.VerdictForward {
		return
	}
	nh := dec.NextHop
	if nh == 0 {
		nh = ip.Dst
	}
	d.sendIPFrame(dec.Egress, nh, ip.MarshalFramed(netpkt.EthernetHeaderLen))
}

// InjectPacket originates a telemetry probe from this device (the
// InjectPackets API, §3.3). The probe is a UDP datagram carrying the
// telemetry signature; every device it traverses captures it.
func (d *Device) InjectPacket(meta dataplane.PacketMeta, flow uint64, seq uint32) {
	if d.state != DeviceRunning {
		return
	}
	payload := make([]byte, len(TelemetryMagic)+12)
	copy(payload, TelemetryMagic)
	binary.BigEndian.PutUint64(payload[len(TelemetryMagic):], flow)
	binary.BigEndian.PutUint32(payload[len(TelemetryMagic)+8:], seq)
	udp := &netpkt.UDPDatagram{SrcPort: meta.SrcPort, DstPort: meta.DstPort, Payload: payload}
	ip := &netpkt.IPv4Packet{
		TTL: meta.TTL, Protocol: netpkt.ProtoUDP,
		Src: meta.Src, Dst: meta.Dst,
		Payload: udp.Marshal(),
	}
	dec := d.fwd.Forward("", metaFromIP(ip))
	d.capture("", flow, seq, meta, dec)
	if dec.Verdict != dataplane.VerdictForward {
		return
	}
	d.emitForward(ip, dec)
}

// capture records a telemetry observation.
func (d *Device) capture(iface string, flow uint64, seq uint32, meta dataplane.PacketMeta, dec dataplane.Decision) {
	d.Captures = append(d.Captures, CaptureRecord{
		Time: d.eng.Now(), Device: d.Name,
		FlowID: flow, Seq: seq,
		Iface: iface, Verdict: dec.Verdict, Egress: dec.Egress,
		Meta: meta,
	})
}

// PullPackets drains and returns the capture buffer (§3.3 PullPackets with
// clean-after-pull).
func (d *Device) PullPackets() []CaptureRecord {
	out := d.Captures
	d.Captures = nil
	return out
}

// telemetrySignature extracts (flow, seq) if the packet is a telemetry
// probe.
func telemetrySignature(ip *netpkt.IPv4Packet) (uint64, uint32, bool) {
	if ip.Protocol != netpkt.ProtoUDP {
		return 0, 0, false
	}
	udp, err := netpkt.UnmarshalUDP(ip.Payload)
	if err != nil || len(udp.Payload) < len(TelemetryMagic)+12 {
		return 0, 0, false
	}
	if !bytes.HasPrefix(udp.Payload, TelemetryMagic) {
		return 0, 0, false
	}
	flow := binary.BigEndian.Uint64(udp.Payload[len(TelemetryMagic):])
	seq := binary.BigEndian.Uint32(udp.Payload[len(TelemetryMagic)+8:])
	return flow, seq, true
}

// metaFromIP derives the forwarding 5-tuple, pulling ports from UDP
// payloads.
func metaFromIP(ip *netpkt.IPv4Packet) *dataplane.PacketMeta {
	m := &dataplane.PacketMeta{Src: ip.Src, Dst: ip.Dst, Proto: ip.Protocol, TTL: ip.TTL}
	if ip.Protocol == netpkt.ProtoUDP {
		if udp, err := netpkt.UnmarshalUDP(ip.Payload); err == nil {
			m.SrcPort, m.DstPort = udp.SrcPort, udp.DstPort
		}
	}
	return m
}

// Stats is the PullStates payload for one device.
type Stats struct {
	Name        string
	State       DeviceState
	FIBLen      int
	LocRIB      int
	Established int
	Flaps       int
	MsgsSent    uint64
}

// PullStates summarizes device state (§3.3 PullStates).
func (d *Device) PullStates() Stats {
	st := Stats{Name: d.Name, State: d.state, Flaps: d.flaps, MsgsSent: d.BGPUpdatesSent}
	if d.fib != nil {
		st.FIBLen = d.fib.Len()
	}
	if d.bgp != nil {
		bs := d.bgp.Stats()
		st.LocRIB = bs.LocRIB
		st.Established = bs.Established
	}
	return st
}
