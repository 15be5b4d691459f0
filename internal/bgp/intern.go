package bgp

import (
	"sync"
	"sync/atomic"

	"crystalnet/internal/netpkt"
)

// This file implements the process-wide path-attribute intern table.
//
// At M-DC scale the same attribute set is parsed out of UPDATEs O(routes ×
// peers × devices) times: every neighbor of every device allocates its own
// structurally identical *Attrs for every route it learns. Interning
// collapses those copies into one canonical immutable object per distinct
// attribute set, so Adj-RIB-In/Out entries across the whole emulation are
// shared pointers — the same invariant the checkpoint sealing machinery
// (DESIGN.md §6) establishes at fork time, extended to all of convergence.
//
// The table is process-global and thread-safe: independent engines run on
// parallel goroutines (chaos campaigns, crystald), and sharing canonical
// attrs *between* engines is exactly the point. An Attrs
// is published to the table only after its ekey memo is filled, so readers
// never race the lazy fingerprint fill. Canonical objects are immutable
// forever after (enforced under -tags crystaldebug).
//
// Interning is keyed by computeAttrsKey plus the AGGREGATOR router ID:
// the wire-grouping fingerprint (ekey) deliberately omits AggID, but two
// attribute sets differing only in AggID are distinct route attributes and
// must not unify. DESIGN.md §10 covers the table's lifetime.

// maxInternTable bounds the table; it is cleared wholesale when full, the
// same policy as the router-local memo caches. Canonical objects already
// handed out stay valid (and sealed) — only future lookups re-intern.
const maxInternTable = 1 << 17

var internTab = struct {
	sync.Mutex
	m map[internKey]*Attrs
}{m: make(map[internKey]*Attrs)}

type internKey struct {
	ekey  string
	aggID netpkt.IP
}

var (
	internHits   atomic.Uint64
	internMisses atomic.Uint64
	internSize   atomic.Int64
)

// SetInterning resets the global intern table: it empties the table and
// zeroes the hit/miss counters, so a measurement starts from a cold table.
// Interning is always on; SetInterning(false) panics. Canonical objects
// already handed out stay valid, and routing output does not depend on the
// table's state (see sameIntern).
func SetInterning(on bool) {
	if !on {
		panic("bgp: interning is always on; SetInterning(true) only resets the table")
	}
	internTab.Lock()
	internTab.m = make(map[internKey]*Attrs)
	internSize.Store(0)
	internHits.Store(0)
	internMisses.Store(0)
	internTab.Unlock()
}

// InternStats reports the intern table's lifetime hits and misses and its
// current size. The counters are process-global accumulators, so they are
// reported by the bench harness (crystalbench -scale) rather than recorded
// into the deterministic per-emulation obs trace.
func InternStats() (hits, misses uint64, size int) {
	return internHits.Load(), internMisses.Load(), int(internSize.Load())
}

// sameIntern reports whether a and b have the same intern identity (the
// table key): equal attribute values that may sit at different canonical
// pointers because the table was reset or cleared between their Intern
// calls. Both must be nil or canonical.
func sameIntern(a, b *Attrs) bool {
	if a == b {
		return true
	}
	return a != nil && b != nil && a.AggID == b.AggID && attrsKey(a) == attrsKey(b)
}

// Intern returns the canonical *Attrs equal to a, registering a as the
// canonical object if none exists. The returned value must be treated as
// deeply immutable: it may be aliased by every RIB in the process. a itself
// must not be mutated after the call either (it may have become canonical).
// A nil a is returned unchanged.
func Intern(a *Attrs) *Attrs {
	if a == nil {
		return a
	}
	// Fill the fingerprint memo before publication: after this the object
	// is read-only, so cross-goroutine sharing is race-free.
	key := internKey{ekey: attrsKey(a), aggID: a.AggID}
	internTab.Lock()
	if c, ok := internTab.m[key]; ok {
		internTab.Unlock()
		internHits.Add(1)
		return c
	}
	if len(internTab.m) >= maxInternTable {
		internTab.m = make(map[internKey]*Attrs)
		internSize.Store(0)
	}
	internTab.m[key] = a
	internSize.Store(int64(len(internTab.m)))
	internTab.Unlock()
	internMisses.Add(1)
	return a
}
