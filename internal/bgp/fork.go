package bgp

import (
	"crystalnet/internal/netpkt"
)

// SealAttrs forces the lazy fingerprint memo (ekey) on every *Attrs the
// router could share with a fork. Attrs are immutable once shared *except*
// for that memo, so sealing them once, single-threaded, at checkpoint time
// turns them fully read-only — after which any number of concurrent forks
// can alias them without cloning and without racing on the memo fill.
//
// Every attrs that entered a RIB came through Intern, which filled the memo
// before publication, so the walk is a near-no-op; it stays as the guard
// that makes the no-race property independent of that invariant.
func (r *Router) SealAttrs() {
	seal := func(a *Attrs) {
		if a != nil && a.ekey == "" {
			attrsKey(a)
		}
	}
	// The per-peer Adj-RIB-In is a presence bitset: every attrs a peer has
	// accepted is also a Loc-RIB candidate, so walking the Loc-RIB (below)
	// covers the whole reachable attrs set.
	sealEntry := func(e *ribEntry) {
		for i := range e.candidates {
			seal(e.candidates[i].attrs)
		}
		seal(e.lastBest)
	}
	for _, e := range r.locRIB {
		sealEntry(e)
	}
	for i := range r.aggState {
		for _, e := range r.aggState[i].covered {
			sealEntry(e)
		}
	}
	// Advertised export templates are not reachable from the Loc-RIB (they
	// carry the prepended path), yet forks alias them for the no-change
	// flush comparison — seal those too.
	for _, p := range r.peers {
		p.advertised.Range(func(_ int, a *Attrs) bool {
			seal(a)
			return true
		})
	}
}

// Fork returns a deep copy of the router for a forked emulation, rebound to
// the fork's clock and hooks. The source router is read strictly read-only,
// so any number of forks can be taken from it concurrently — provided
// SealAttrs ran once before the first fork.
//
// Attribute objects (*Attrs) and AS paths are immutable once shared, so the
// fork aliases them instead of cloning: sharing preserves the exact
// aliasing topology between a peer's Adj-RIB-In, Loc-RIB candidates and the
// entries' lastBest caches that a clone would have to reconstruct.
//
// The prepend and export caches are deliberately left empty. Aliasing
// keeps their pointer keys valid, so copying them would be correct — but
// measured on the S-DC chaos campaign the copies cost more than the
// misses: fault churn mostly derives new attribute objects, which miss any
// warm cache. Cache state never changes output bytes (pure memoization),
// only how much work a flush does.
func (r *Router) Fork(clock Clock, hooks Hooks) *Router {
	if hooks.Logf == nil {
		hooks.Logf = func(string, ...any) {}
	}
	if hooks.SessionEvent == nil {
		hooks.SessionEvent = func(int, SessionState) {}
	}
	c := &Router{
		cfg:          r.cfg,
		clock:        clock,
		hooks:        hooks,
		locRIB:       make(map[netpkt.Prefix]*ribEntry, len(r.locRIB)),
		seq:          r.seq,
		nextID:       r.nextID,
		prefixByID:   append([]netpkt.Prefix(nil), r.prefixByID...),
		prependCache: map[*ASPath]*ASPath{},
	}
	// The fork's hooks carry the fork's recorder, whose counters already
	// hold the parent's totals (obs.Recorder.Fork deep-copies them), so
	// rebinding continues the series rather than restarting it.
	c.bindMetrics(hooks.Rec)

	// Peers first: Loc-RIB candidates reference them by pointer.
	c.peers = make([]*Peer, len(r.peers))
	for i, p := range r.peers {
		np := &Peer{
			router:      c,
			Index:       p.Index,
			Config:      p.Config,
			state:       p.state,
			remoteID:    p.remoteID,
			openSent:    p.openSent,
			localGen:    p.localGen,
			remoteGen:   p.remoteGen,
			dirtyBits:   append([]uint64(nil), p.dirtyBits...),
			dirtyList:   append([]netpkt.Prefix(nil), p.dirtyList...),
			MsgsIn:      p.MsgsIn,
			MsgsOut:     p.MsgsOut,
			RoutesIn:    p.RoutesIn,
			WithdrawsIn: p.WithdrawsIn,
		}
		// flushTimer is a pending closure and must be nil: forks are only
		// taken at quiescence, when every MRAI flush has already fired.
		// The dense Adj-RIB tables clone their backing arrays; the *Attrs
		// values are sealed immutables and alias across the fork.
		np.adjIn = *p.adjIn.Clone()
		np.advertised = *p.advertised.Clone()
		c.peers[i] = np
	}

	// Loc-RIB entries, memoized so the aggregate coverage index below can
	// be remapped onto the same clones.
	entryMap := make(map[*ribEntry]*ribEntry, len(r.locRIB))
	cloneEntry := func(e *ribEntry) *ribEntry {
		if dup, ok := entryMap[e]; ok {
			return dup
		}
		dup := &ribEntry{
			id: e.id,
			// Candidates carry peer *indices*, which are identical in the
			// fork's peer slice, so the whole slice copies verbatim.
			candidates: append([]candidate(nil), e.candidates...),
			best:       append([]int32(nil), e.best...),
			// installed aliases a canonical immutable hop group, so the fork
			// shares it rather than copying (same policy as the attrs).
			installed:  e.installed,
			lastBest:   e.lastBest,
			suppressed: e.suppressed,
		}
		entryMap[e] = dup
		return dup
	}
	for pfx, e := range r.locRIB {
		c.locRIB[pfx] = cloneEntry(e)
	}

	c.aggState = make([]aggState, len(r.aggState))
	for i, as := range r.aggState {
		na := aggState{spec: as.spec, active: as.active}
		if as.covered != nil {
			na.covered = make(map[netpkt.Prefix]*ribEntry, len(as.covered))
			for pfx, e := range as.covered {
				na.covered[pfx] = cloneEntry(e)
			}
		}
		c.aggState[i] = na
	}
	return c
}
