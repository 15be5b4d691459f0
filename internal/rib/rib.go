// Package rib provides the forwarding-state data structures shared by every
// device in the emulator: FIB entries with ECMP next-hop groups, longest-
// prefix-match lookup, snapshots for the PullStates API, and the FIB
// comparator from §9 that tolerates ECMP/aggregation non-determinism when
// cross-validating emulated state against production (or between runs).
//
// DESIGN.md §2 (substrates) and §3 (§9 cross-validation row) place these
// structures.
package rib

import (
	"fmt"
	"sort"
	"strings"

	"crystalnet/internal/netpkt"
	"crystalnet/internal/trie"
)

// Proto identifies the protocol that installed a route.
type Proto uint8

// Route sources, in ascending administrative distance.
const (
	ProtoConnected Proto = iota
	ProtoStatic
	ProtoOSPF
	ProtoBGP
	ProtoAggregate
)

var protoNames = [...]string{"connected", "static", "ospf", "bgp", "aggregate"}

// String returns the lower-case protocol name.
func (p Proto) String() string {
	if int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("proto(%d)", uint8(p))
}

// AdminDistance returns the conventional administrative distance used when
// multiple protocols offer the same prefix (lower wins).
func (p Proto) AdminDistance() int {
	switch p {
	case ProtoConnected:
		return 0
	case ProtoStatic:
		return 1
	case ProtoOSPF:
		return 110
	case ProtoBGP:
		return 20 // eBGP; the fabric is all-eBGP per RFC 7938
	case ProtoAggregate:
		return 200
	}
	return 255
}

// NextHop is one way out of the device for a destination.
type NextHop struct {
	// IP is the next-hop router address; 0 for directly connected subnets.
	IP netpkt.IP
	// Interface is the egress interface name.
	Interface string
}

// String formats the next hop as "ip@intf" or "direct@intf".
func (nh NextHop) String() string {
	if nh.IP == 0 {
		return "direct@" + nh.Interface
	}
	return nh.IP.String() + "@" + nh.Interface
}

// Entry is one FIB entry. NextHops with more than one element form an ECMP
// group. NextHops may alias a canonical hop group shared with other entries
// of the same table (see HopSetTable); treat the slice as immutable.
type Entry struct {
	Prefix   netpkt.Prefix
	NextHops []NextHop
	Proto    Proto
}

// Clone returns a deep copy of the entry.
func (e *Entry) Clone() *Entry {
	c := *e
	c.NextHops = append([]NextHop(nil), e.NextHops...)
	return &c
}

// canonicalize sorts next hops so entry comparison is order-insensitive.
func (e *Entry) canonicalize() { sortHops(e.NextHops) }

// sortHops orders a hop group in place. ECMP groups are tiny (the fabric's
// multipath width), so a hand-rolled insertion sort beats sort.Slice's
// closure machinery on the install path.
func sortHops(nhs []NextHop) {
	for i := 1; i < len(nhs); i++ {
		for j := i; j > 0 && nhLess(nhs[j], nhs[j-1]); j-- {
			nhs[j], nhs[j-1] = nhs[j-1], nhs[j]
		}
	}
}

func nhLess(a, b NextHop) bool {
	if a.IP != b.IP {
		return a.IP < b.IP
	}
	return a.Interface < b.Interface
}

// HopSetTable interns next-hop groups: a fabric device forwards thousands of
// prefixes over a handful of distinct ECMP groups (the up-fabric multipath
// set, one single-hop group per down-link), so letting every entry alias one
// canonical slice per distinct group removes the dominant per-prefix heap
// cost of large FIBs (DESIGN.md §10). Canonical slices are immutable once
// handed out. The zero value is ready to use.
type HopSetTable struct {
	m map[uint64][][]NextHop
}

// Canonical returns the canonical slice whose contents equal nhs (in order),
// copying nhs into a new canonical group on first sight. nhs is not retained.
// An empty group canonicalizes to nil.
func (t *HopSetTable) Canonical(nhs []NextHop) []NextHop {
	if len(nhs) == 0 {
		return nil
	}
	h := hashHops(nhs)
	for _, s := range t.m[h] {
		if hopSlicesEqual(s, nhs) {
			return s
		}
	}
	c := append(make([]NextHop, 0, len(nhs)), nhs...)
	if t.m == nil {
		t.m = map[uint64][][]NextHop{}
	}
	t.m[h] = append(t.m[h], c)
	return c
}

// HashHops is FNV-1a over a hop group's addresses and interface names —
// the content hash the HopSetTable interns groups by. It is exported for
// the traffic plane's ECMP hash-bucket spreading (internal/dataplane
// SpreadFlows): keying bucket assignment on the group's *values* keeps the
// spread independent of which slice holds the group, and makes flows
// re-spread when a FIB reprogram changes the group.
func HashHops(nhs []NextHop) uint64 { return hashHops(nhs) }

// hashHops is FNV-1a over the group's hop addresses and interface names.
func hashHops(nhs []NextHop) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, nh := range nhs {
		ip := uint32(nh.IP)
		mix(byte(ip))
		mix(byte(ip >> 8))
		mix(byte(ip >> 16))
		mix(byte(ip >> 24))
		for i := 0; i < len(nh.Interface); i++ {
			mix(nh.Interface[i])
		}
		mix(0xff) // group-element separator
	}
	return h
}

func hopSlicesEqual(a, b []NextHop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FIB is a device's forwarding table.
type FIB struct {
	// t is the longest-prefix-match trie, built lazily from byPrefix on the
	// first LPM or ordered-walk operation (nil until then). A converging
	// fabric performs millions of installs before the first data-plane
	// query — and a control-plane-only workload like the §10 scale
	// benchmark never queries at all — so the trie nodes are not paid for
	// until something actually routes. Trie results are insertion-order
	// independent (lookups return the longest match, walks visit in prefix
	// order), so deferring the build never changes an answer.
	t *trie.Trie[*Entry]
	// byPrefix is the authoritative table, keyed for exact-match
	// operations: a map probe is several times cheaper than a trie
	// descent, and during BGP path hunting the same prefix is reprogrammed
	// many times before the table reaches steady state (see InstallHops).
	byPrefix map[netpkt.Prefix]*Entry
	// Capacity limits the number of entries; 0 means unlimited. When full,
	// Install's behaviour depends on the device firmware — the FIB itself
	// just reports ErrFull (the §2 load-balancer incident arises from a
	// firmware that silently ignores this error).
	Capacity int
	// hopSets interns the distinct next-hop groups installed in this table
	// so entries alias one canonical slice per group; scratch is the reusable
	// sort buffer InstallHops canonicalizes into.
	hopSets HopSetTable
	scratch []NextHop
}

// ErrFull is returned by Install when the FIB is at capacity.
var ErrFull = fmt.Errorf("rib: FIB capacity exceeded")

// NewFIB returns an empty forwarding table with unlimited capacity.
func NewFIB() *FIB {
	return &FIB{byPrefix: map[netpkt.Prefix]*Entry{}}
}

// lpm returns the LPM trie, building it from byPrefix on first use.
func (f *FIB) lpm() *trie.Trie[*Entry] {
	if f.t == nil {
		f.t = trie.New[*Entry]()
		for p, e := range f.byPrefix {
			f.t.Insert(p, e)
		}
	}
	return f.t
}

// Len returns the number of installed prefixes.
func (f *FIB) Len() int { return len(f.byPrefix) }

// Install adds or replaces the entry for e.Prefix. Replacing never fails;
// adding a new prefix to a full table returns ErrFull. The FIB owns e after
// the call.
func (f *FIB) Install(e *Entry) error {
	e.Prefix.Addr &= e.Prefix.MaskIP()
	e.canonicalize()
	if f.Capacity > 0 && len(f.byPrefix) >= f.Capacity {
		if _, exists := f.byPrefix[e.Prefix]; !exists {
			return ErrFull
		}
	}
	if f.t != nil {
		f.t.Insert(e.Prefix, e)
	}
	f.byPrefix[e.Prefix] = e
	return nil
}

// InstallHops adds or reprograms the route for p without the caller
// allocating an Entry: the hops are sorted into a reusable scratch buffer
// and the entry points at the table's canonical copy of that group — no
// trie descent on reprogram (the dominant case while BGP hunts paths), and
// no per-prefix hop storage once the group has been seen before. nhs is not
// retained or mutated.
func (f *FIB) InstallHops(p netpkt.Prefix, proto Proto, nhs []NextHop) error {
	p.Addr &= p.MaskIP()
	f.scratch = append(f.scratch[:0], nhs...)
	sortHops(f.scratch)
	if e, ok := f.byPrefix[p]; ok {
		e.Proto = proto
		e.NextHops = f.hopSets.Canonical(f.scratch)
		return nil
	}
	if f.Capacity > 0 && len(f.byPrefix) >= f.Capacity {
		return ErrFull
	}
	e := &Entry{Prefix: p, Proto: proto, NextHops: f.hopSets.Canonical(f.scratch)}
	if f.t != nil {
		f.t.Insert(p, e)
	}
	f.byPrefix[p] = e
	return nil
}

// Remove deletes the entry for p, reporting whether it was present.
func (f *FIB) Remove(p netpkt.Prefix) bool {
	p.Addr &= p.MaskIP()
	if _, ok := f.byPrefix[p]; !ok {
		return false
	}
	delete(f.byPrefix, p)
	if f.t != nil {
		f.t.Delete(p)
	}
	return true
}

// Get returns the entry for exactly p.
func (f *FIB) Get(p netpkt.Prefix) (*Entry, bool) {
	p.Addr &= p.MaskIP()
	e, ok := f.byPrefix[p]
	return e, ok
}

// Lookup performs longest-prefix match for ip.
func (f *FIB) Lookup(ip netpkt.IP) (*Entry, bool) {
	_, e, ok := f.lpm().Lookup(ip)
	return e, ok
}

// Walk visits entries in ascending prefix order.
func (f *FIB) Walk(fn func(*Entry) bool) {
	f.lpm().Walk(func(_ netpkt.Prefix, e *Entry) bool { return fn(e) })
}

// Snapshot returns a deep copy of all entries, sorted by prefix — the
// payload of the paper's PullStates API.
func (f *FIB) Snapshot() Snapshot {
	out := make(Snapshot, 0, len(f.byPrefix))
	f.Walk(func(e *Entry) bool {
		out = append(out, e.Clone())
		return true
	})
	return out
}

// Snapshot is an ordered dump of a FIB.
type Snapshot []*Entry

// Len returns the number of entries in the snapshot.
func (s Snapshot) Len() int { return len(s) }

// String renders the snapshot one entry per line, for debugging and golden
// comparisons.
func (s Snapshot) String() string {
	var b strings.Builder
	for _, e := range s {
		fmt.Fprintf(&b, "%s via", e.Prefix)
		for _, nh := range e.NextHops {
			fmt.Fprintf(&b, " %s", nh)
		}
		fmt.Fprintf(&b, " [%s]\n", e.Proto)
	}
	return b.String()
}

// DiffKind classifies one FIB difference.
type DiffKind uint8

// Difference kinds reported by Compare.
const (
	DiffMissingLeft  DiffKind = iota // prefix only in the right snapshot
	DiffMissingRight                 // prefix only in the left snapshot
	DiffNextHops                     // prefix in both, next hops disagree
)

func (k DiffKind) String() string {
	switch k {
	case DiffMissingLeft:
		return "missing-left"
	case DiffMissingRight:
		return "missing-right"
	case DiffNextHops:
		return "nexthop-mismatch"
	}
	return "unknown"
}

// Diff is one difference between two snapshots.
type Diff struct {
	Kind   DiffKind
	Prefix netpkt.Prefix
	Left   *Entry // nil for DiffMissingLeft
	Right  *Entry // nil for DiffMissingRight
}

// String formats the difference for reports.
func (d Diff) String() string {
	return fmt.Sprintf("%s %s", d.Kind, d.Prefix)
}

// CompareMode selects how tolerant the comparator is.
type CompareMode uint8

// Comparator modes.
const (
	// Strict requires identical next-hop sets for every prefix.
	Strict CompareMode = iota
	// ECMPAware (the §9 comparator) treats a prefix as matching when the two
	// next-hop sets overlap: BGP implementations choose non-deterministically
	// among equal candidates when ECMP interacts with aggregation, so any
	// common choice indicates the same candidate set. Disjoint sets are
	// still a mismatch.
	ECMPAware
)

// Compare diffs two snapshots. The result is sorted by prefix.
func Compare(left, right Snapshot, mode CompareMode) []Diff {
	li := indexSnapshot(left)
	ri := indexSnapshot(right)
	var out []Diff
	for p, le := range li {
		re, ok := ri[p]
		if !ok {
			out = append(out, Diff{Kind: DiffMissingRight, Prefix: p, Left: le})
			continue
		}
		if !nextHopsMatch(le.NextHops, re.NextHops, mode) {
			out = append(out, Diff{Kind: DiffNextHops, Prefix: p, Left: le, Right: re})
		}
	}
	for p, re := range ri {
		if _, ok := li[p]; !ok {
			out = append(out, Diff{Kind: DiffMissingLeft, Prefix: p, Right: re})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Prefix, out[j].Prefix
		if a.Addr != b.Addr {
			return a.Addr < b.Addr
		}
		if a.Len != b.Len {
			return a.Len < b.Len
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// DiffAgainst diffs a saved snapshot (sorted, as Snapshot returns it)
// against the FIB's live contents in one ordered merge — no pulled copy of
// the table, no index maps — producing exactly what Compare(base, Snapshot())
// would. Only differing entries are cloned; the common case (no drift)
// allocates nothing. Diff output order matches Compare's sorted order
// because both sides are walked in ascending (address, length) order.
func (f *FIB) DiffAgainst(base Snapshot, mode CompareMode) []Diff {
	var out []Diff
	i := 0
	f.Walk(func(e *Entry) bool {
		for i < len(base) && prefixBefore(base[i].Prefix, e.Prefix) {
			out = append(out, Diff{Kind: DiffMissingRight, Prefix: base[i].Prefix, Left: base[i]})
			i++
		}
		if i < len(base) && base[i].Prefix == e.Prefix {
			if !nextHopsMatch(base[i].NextHops, e.NextHops, mode) {
				out = append(out, Diff{Kind: DiffNextHops, Prefix: e.Prefix, Left: base[i], Right: e.Clone()})
			}
			i++
		} else {
			out = append(out, Diff{Kind: DiffMissingLeft, Prefix: e.Prefix, Right: e.Clone()})
		}
		return true
	})
	for ; i < len(base); i++ {
		out = append(out, Diff{Kind: DiffMissingRight, Prefix: base[i].Prefix, Left: base[i]})
	}
	return out
}

func prefixBefore(a, b netpkt.Prefix) bool {
	if a.Addr != b.Addr {
		return a.Addr < b.Addr
	}
	return a.Len < b.Len
}

func indexSnapshot(s Snapshot) map[netpkt.Prefix]*Entry {
	m := make(map[netpkt.Prefix]*Entry, len(s))
	for _, e := range s {
		m[e.Prefix] = e
	}
	return m
}

func nextHopsMatch(a, b []NextHop, mode CompareMode) bool {
	switch mode {
	case Strict:
		if len(a) != len(b) {
			return false
		}
		as := make(map[NextHop]bool, len(a))
		for _, nh := range a {
			as[nh] = true
		}
		for _, nh := range b {
			if !as[nh] {
				return false
			}
		}
		return true
	case ECMPAware:
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		as := make(map[NextHop]bool, len(a))
		for _, nh := range a {
			as[nh] = true
		}
		for _, nh := range b {
			if as[nh] {
				return true
			}
		}
		return false
	}
	return false
}

// Clone returns a deep copy of the FIB for a forked emulation. Each entry
// is copied exactly once; the clone's LPM trie is left unbuilt and
// reassembles itself from the copied table on the fork's first data-plane
// query (see FIB.t), which keeps forks cheap for rehearsals that never
// inject traffic.
func (f *FIB) Clone() *FIB {
	c := &FIB{
		byPrefix: make(map[netpkt.Prefix]*Entry, len(f.byPrefix)),
		Capacity: f.Capacity,
	}
	for p, e := range f.byPrefix {
		// The entry struct is copied; its hop group is aliased. Stored hop
		// groups are immutable — InstallHops replaces the slice wholesale,
		// never edits it — so forks share them (same policy as the attrs).
		ce := *e
		c.byPrefix[p] = &ce
	}
	return c
}
