package serve

import (
	"strings"
	"testing"

	"crystalnet/internal/obs"
	"crystalnet/internal/scenario"
)

func TestPoolKeyIgnoresRunOnlyFields(t *testing.T) {
	a := tinySpec("alpha", 7)
	b := tinySpec("beta", 7)
	b.Description = "different description"
	b.Steps = b.Steps[:1]
	if PoolKey(a, scenario.Options{}) != PoolKey(b, scenario.Options{}) {
		t.Fatal("name/description/steps leaked into the pool key")
	}
	c := tinySpec("gamma", 8)
	if PoolKey(a, scenario.Options{}) == PoolKey(c, scenario.Options{}) {
		t.Fatal("seed did not distinguish pool keys")
	}
	d := tinySpec("delta", 7)
	d.Topology.Clos.Pods = 3
	if PoolKey(a, scenario.Options{}) == PoolKey(d, scenario.Options{}) {
		t.Fatal("topology did not distinguish pool keys")
	}
	// SeedOverride resolves into the key just like a spec seed.
	seed := int64(8)
	if PoolKey(a, scenario.Options{SeedOverride: &seed}) != PoolKey(c, scenario.Options{}) {
		t.Fatal("seed override not folded into the pool key")
	}
}

func TestPoolLRUEviction(t *testing.T) {
	p := NewPool(2, 0, false, obs.New())
	defer p.Close()
	specs := []*scenario.Spec{tinySpec("s1", 7), tinySpec("s2", 8), tinySpec("s3", 9)}
	for _, sp := range specs[:2] {
		_, rel, hit, err := p.Acquire(sp, scenario.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatalf("%s: unexpected hit", sp.Name)
		}
		rel()
	}
	// Touch s1 so s2 becomes LRU, then insert s3: s2 must be evicted.
	_, rel, hit, err := p.Acquire(specs[0], scenario.Options{}, nil)
	if err != nil || !hit {
		t.Fatalf("s1 re-acquire: hit=%v err=%v", hit, err)
	}
	rel()
	_, rel, _, err = p.Acquire(specs[2], scenario.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel()

	st := p.Status()
	if st.Evictions != 1 || len(st.Entries) != 2 {
		t.Fatalf("status after eviction: %+v", st)
	}
	seeds := map[int64]bool{}
	for _, e := range st.Entries {
		seeds[e.Seed] = true
	}
	if !seeds[7] || !seeds[9] || seeds[8] {
		t.Fatalf("wrong entries survived: %+v", st.Entries)
	}
	// s2 was evicted with zero refs: its snapshot is invalidated, so a
	// stale Converged handle refuses to fork.
	_, rel, hit, err = p.Acquire(specs[1], scenario.Options{}, nil)
	if err != nil || hit {
		t.Fatalf("s2 after eviction: hit=%v err=%v (want fresh miss)", hit, err)
	}
	rel()
}

func TestEvictedEntryInvalidatesAfterLastRelease(t *testing.T) {
	p := NewPool(1, 0, false, obs.New())
	defer p.Close()
	sp1, sp2 := tinySpec("held", 7), tinySpec("pusher", 8)
	cv, rel, _, err := p.Acquire(sp1, scenario.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Insert a second fabric into a size-1 pool: sp1's entry is evicted
	// while still borrowed.
	_, rel2, _, err := p.Acquire(sp2, scenario.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	// The borrowed baseline still forks — eviction must not cut off an
	// in-flight borrower.
	if _, err := cv.Run(tinySpec("held-run", 7), scenario.Options{}); err != nil {
		t.Fatalf("borrowed baseline refused to fork after eviction: %v", err)
	}
	rel()
	// Last ref gone: the snapshot is now invalidated.
	if _, err := cv.Run(tinySpec("stale-run", 7), scenario.Options{}); err == nil {
		t.Fatal("stale handle forked an invalidated snapshot")
	} else if !strings.Contains(err.Error(), "invalidated") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestPoolInvalidateRewarms(t *testing.T) {
	p := NewPool(2, 0, true, obs.New())
	defer p.Close()
	sp := tinySpec("rw", 7)
	_, rel, _, err := p.Acquire(sp, scenario.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if n := p.Invalidate(sp, scenario.Options{}); n != 1 {
		t.Fatalf("invalidated %d entries, want 1", n)
	}
	// Rewarm replaced the entry in the background; the next acquire is a
	// hit on the fresh baseline (coalescing with its convergence if it is
	// still warming) and must fork successfully.
	cv, rel, hit, err := p.Acquire(sp, scenario.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("rewarmed entry missing — acquire missed")
	}
	if _, err := cv.Run(tinySpec("rw-run", 7), scenario.Options{}); err != nil {
		t.Fatalf("rewarmed baseline refused to fork: %v", err)
	}
	rel()
}

func TestPoolCloseRefusesAcquire(t *testing.T) {
	p := NewPool(1, 0, false, obs.New())
	p.Close()
	if _, _, _, err := p.Acquire(tinySpec("late", 7), scenario.Options{}, nil); err == nil {
		t.Fatal("closed pool admitted an acquire")
	}
	p.Close() // idempotent
}
