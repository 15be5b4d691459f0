package rib

import (
	"strings"
	"testing"
	"testing/quick"

	"crystalnet/internal/netpkt"
)

func pfx(s string) netpkt.Prefix { return netpkt.MustParsePrefix(s) }

func entry(p string, proto Proto, hops ...string) *Entry {
	e := &Entry{Prefix: pfx(p), Proto: proto}
	for _, h := range hops {
		e.NextHops = append(e.NextHops, NextHop{IP: netpkt.MustParseIP(h), Interface: "et0"})
	}
	return e
}

func TestInstallLookup(t *testing.T) {
	f := NewFIB()
	if err := f.Install(entry("10.0.0.0/8", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Install(entry("10.1.0.0/16", ProtoBGP, "2.2.2.2")); err != nil {
		t.Fatal(err)
	}
	e, ok := f.Lookup(netpkt.MustParseIP("10.1.2.3"))
	if !ok || e.Prefix != pfx("10.1.0.0/16") {
		t.Fatalf("Lookup = %v, %v", e, ok)
	}
	e, ok = f.Lookup(netpkt.MustParseIP("10.2.0.1"))
	if !ok || e.Prefix != pfx("10.0.0.0/8") {
		t.Fatalf("Lookup fallback = %v, %v", e, ok)
	}
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
}

func TestInstallCanonicalizesNextHops(t *testing.T) {
	f := NewFIB()
	e := entry("10.0.0.0/8", ProtoBGP, "9.9.9.9", "1.1.1.1", "5.5.5.5")
	f.Install(e)
	got, _ := f.Get(pfx("10.0.0.0/8"))
	if got.NextHops[0].IP != netpkt.MustParseIP("1.1.1.1") ||
		got.NextHops[2].IP != netpkt.MustParseIP("9.9.9.9") {
		t.Fatalf("next hops not sorted: %v", got.NextHops)
	}
}

func TestTrieBuiltLazily(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoBGP, "1.1.1.1"))
	f.Install(entry("10.1.0.0/16", ProtoBGP, "2.2.2.2"))
	if f.t != nil {
		t.Fatal("trie built before any LPM query")
	}
	e, ok := f.Lookup(netpkt.MustParseIP("10.1.2.3"))
	if !ok || e.Prefix != pfx("10.1.0.0/16") {
		t.Fatalf("lazy trie returned %v, want 10.1.0.0/16", e)
	}
	if f.t == nil {
		t.Fatal("first Lookup must latch the trie")
	}
	// Installs after the build must keep the trie current.
	f.Install(entry("10.1.2.0/24", ProtoBGP, "3.3.3.3"))
	if e, ok := f.Lookup(netpkt.MustParseIP("10.1.2.3")); !ok || e.Prefix != pfx("10.1.2.0/24") {
		t.Fatalf("post-build install not visible to LPM: %v", e)
	}
}

func TestHopGroupSharing(t *testing.T) {
	f := NewFIB()
	f.InstallHops(pfx("10.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", ProtoBGP, "1.1.1.1", "2.2.2.2").NextHops)
	f.InstallHops(pfx("20.0.0.0/8"), ProtoBGP, entry("0.0.0.0/0", ProtoBGP, "1.1.1.1", "2.2.2.2").NextHops)
	a, _ := f.Get(pfx("10.0.0.0/8"))
	b, _ := f.Get(pfx("20.0.0.0/8"))
	if &a.NextHops[0] != &b.NextHops[0] {
		t.Fatal("equal hop groups must alias one canonical slice")
	}
}

func TestCapacity(t *testing.T) {
	f := NewFIB()
	f.Capacity = 2
	if err := f.Install(entry("10.0.0.0/24", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Install(entry("10.0.1.0/24", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Install(entry("10.0.2.0/24", ProtoBGP, "1.1.1.1")); err != ErrFull {
		t.Fatalf("overflow error = %v, want ErrFull", err)
	}
	// Replacement of an existing prefix is allowed at capacity.
	if err := f.Install(entry("10.0.1.0/24", ProtoBGP, "2.2.2.2")); err != nil {
		t.Fatalf("replace at capacity failed: %v", err)
	}
	// Removing frees a slot.
	f.Remove(pfx("10.0.0.0/24"))
	if err := f.Install(entry("10.0.2.0/24", ProtoBGP, "1.1.1.1")); err != nil {
		t.Fatalf("install after remove failed: %v", err)
	}
}

func TestRemove(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoStatic, "1.1.1.1"))
	if !f.Remove(pfx("10.0.0.0/8")) {
		t.Fatal("Remove existing = false")
	}
	if f.Remove(pfx("10.0.0.0/8")) {
		t.Fatal("Remove absent = true")
	}
	if _, ok := f.Lookup(netpkt.MustParseIP("10.0.0.1")); ok {
		t.Fatal("entry still visible after remove")
	}
}

func TestSnapshotDeepCopy(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoBGP, "1.1.1.1"))
	snap := f.Snapshot()
	snap[0].NextHops[0].IP = 0
	got, _ := f.Get(pfx("10.0.0.0/8"))
	if got.NextHops[0].IP == 0 {
		t.Fatal("snapshot aliases live FIB")
	}
}

func TestSnapshotStringFormat(t *testing.T) {
	f := NewFIB()
	f.Install(entry("10.0.0.0/8", ProtoBGP, "1.1.1.1", "2.2.2.2"))
	f.Install(&Entry{Prefix: pfx("10.9.0.0/16"), Proto: ProtoConnected, NextHops: []NextHop{{Interface: "et1"}}})
	s := f.Snapshot().String()
	if !strings.Contains(s, "10.0.0.0/8 via 1.1.1.1@et0 2.2.2.2@et0 [bgp]") {
		t.Fatalf("snapshot string missing BGP line:\n%s", s)
	}
	if !strings.Contains(s, "direct@et1 [connected]") {
		t.Fatalf("snapshot string missing connected line:\n%s", s)
	}
}

func TestProtoNamesAndDistance(t *testing.T) {
	if ProtoBGP.String() != "bgp" || ProtoConnected.String() != "connected" {
		t.Fatal("proto names wrong")
	}
	if Proto(77).String() == "" {
		t.Fatal("unknown proto should still format")
	}
	if ProtoConnected.AdminDistance() >= ProtoBGP.AdminDistance() {
		t.Fatal("connected must beat BGP")
	}
	if ProtoBGP.AdminDistance() >= ProtoOSPF.AdminDistance() {
		t.Fatal("eBGP must beat OSPF")
	}
	if Proto(77).AdminDistance() != 255 {
		t.Fatal("unknown proto distance")
	}
}

func TestCompareIdentical(t *testing.T) {
	a := Snapshot{entry("10.0.0.0/8", ProtoBGP, "1.1.1.1", "2.2.2.2")}
	b := Snapshot{entry("10.0.0.0/8", ProtoBGP, "2.2.2.2", "1.1.1.1")}
	for _, e := range a {
		e.canonicalize()
	}
	for _, e := range b {
		e.canonicalize()
	}
	if d := Compare(a, b, Strict); len(d) != 0 {
		t.Fatalf("identical snapshots differ: %v", d)
	}
}

func TestCompareMissing(t *testing.T) {
	a := Snapshot{entry("10.0.0.0/8", ProtoBGP, "1.1.1.1"), entry("10.1.0.0/16", ProtoBGP, "1.1.1.1")}
	b := Snapshot{entry("10.0.0.0/8", ProtoBGP, "1.1.1.1"), entry("10.2.0.0/16", ProtoBGP, "1.1.1.1")}
	d := Compare(a, b, Strict)
	if len(d) != 2 {
		t.Fatalf("diffs = %v, want 2", d)
	}
	var missLeft, missRight bool
	for _, x := range d {
		switch x.Kind {
		case DiffMissingLeft:
			missLeft = x.Prefix == pfx("10.2.0.0/16")
		case DiffMissingRight:
			missRight = x.Prefix == pfx("10.1.0.0/16")
		}
	}
	if !missLeft || !missRight {
		t.Fatalf("wrong diff classification: %v", d)
	}
}

func TestCompareStrictVsECMPAware(t *testing.T) {
	// ECMP non-determinism (§9): both sides picked a different subset of the
	// same candidate set; they share 2.2.2.2.
	a := Snapshot{entry("100.64.0.0/24", ProtoBGP, "1.1.1.1", "2.2.2.2")}
	b := Snapshot{entry("100.64.0.0/24", ProtoBGP, "2.2.2.2", "3.3.3.3")}
	if d := Compare(a, b, Strict); len(d) != 1 || d[0].Kind != DiffNextHops {
		t.Fatalf("strict diff = %v, want one nexthop-mismatch", d)
	}
	if d := Compare(a, b, ECMPAware); len(d) != 0 {
		t.Fatalf("ECMP-aware diff = %v, want none (overlapping sets)", d)
	}
	// Disjoint sets are a real divergence in both modes.
	c := Snapshot{entry("100.64.0.0/24", ProtoBGP, "7.7.7.7")}
	if d := Compare(a, c, ECMPAware); len(d) != 1 {
		t.Fatalf("disjoint ECMP-aware diff = %v, want 1", d)
	}
}

func TestCompareDiffOrderingDeterministic(t *testing.T) {
	a := Snapshot{
		entry("10.2.0.0/16", ProtoBGP, "1.1.1.1"),
		entry("10.0.0.0/16", ProtoBGP, "1.1.1.1"),
		entry("10.1.0.0/16", ProtoBGP, "1.1.1.1"),
	}
	d := Compare(a, Snapshot{}, Strict)
	if len(d) != 3 {
		t.Fatalf("diffs = %d", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i-1].Prefix.Addr > d[i].Prefix.Addr {
			t.Fatal("diffs not sorted by prefix")
		}
	}
	if d[0].String() != "missing-right 10.0.0.0/16" {
		t.Fatalf("diff string = %q", d[0].String())
	}
}

func TestEmptyNextHopsECMPAware(t *testing.T) {
	a := Snapshot{{Prefix: pfx("10.0.0.0/8"), Proto: ProtoBGP}}
	b := Snapshot{{Prefix: pfx("10.0.0.0/8"), Proto: ProtoBGP}}
	if d := Compare(a, b, ECMPAware); len(d) != 0 {
		t.Fatalf("two empty next-hop sets should match: %v", d)
	}
}

func TestPropertyCompareReflexive(t *testing.T) {
	f := func(addrs []uint32) bool {
		var s Snapshot
		for i, a := range addrs {
			p := netpkt.Prefix{Addr: netpkt.IP(a), Len: uint8(8 + i%25)}
			p.Addr &= p.MaskIP()
			s = append(s, &Entry{Prefix: p, Proto: ProtoBGP,
				NextHops: []NextHop{{IP: netpkt.IP(a ^ 0xff), Interface: "et0"}}})
		}
		return len(Compare(s, s, Strict)) == 0 && len(Compare(s, s, ECMPAware)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareSymmetricCount(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		mk := func(vals []uint32) Snapshot {
			var s Snapshot
			seen := map[netpkt.Prefix]bool{}
			for _, v := range vals {
				p := netpkt.Prefix{Addr: netpkt.IP(v), Len: 24}
				p.Addr &= p.MaskIP()
				if seen[p] {
					continue
				}
				seen[p] = true
				s = append(s, &Entry{Prefix: p, Proto: ProtoBGP, NextHops: []NextHop{{IP: 1, Interface: "e"}}})
			}
			return s
		}
		a, b := mk(xs), mk(ys)
		return len(Compare(a, b, Strict)) == len(Compare(b, a, Strict))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
