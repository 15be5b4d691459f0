// Package parallel provides the bounded worker pool the experiment harness
// and the chaos-campaign layer use to fan independent emulation runs across
// cores (Figure 8 repetitions, Table 4 boundary sweeps, scenario chaos
// campaigns).
//
// The pool is deliberately minimal: it distributes job indices and collects
// results in input order, nothing else. Determinism comes from the jobs,
// not the pool — every job owns its own sim.Engine (and, when tracing, its
// own obs.Recorder), so jobs share no mutable state and a run's output is
// byte-identical whether it executed on 1 worker or 64. Run with
// workers <= 1 stays on the calling goroutine, which keeps single-core
// hosts and -race debugging free of scheduling noise.
//
// DESIGN.md §4 records this serial-equals-parallel contract as a key
// design decision; DESIGN.md §7 relies on it for campaign traces.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: n <= 0 means GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run invokes fn(i) for every i in [0, n), using at most workers goroutines.
// With workers <= 1 (or a single job) everything runs serially on the
// calling goroutine — no goroutine or channel overhead on 1-core hosts.
// Run returns once every job has finished.
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn(i) for every i in [0, n) across at most workers goroutines and
// returns the results indexed by i — output order is deterministic no matter
// how the jobs are scheduled.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	Run(n, workers, func(i int) { out[i] = fn(i) })
	return out
}
