package parallel

import (
	"sync/atomic"
	"testing"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		got := Map(100, workers, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunZeroJobs(t *testing.T) {
	ran := false
	Run(0, 4, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n=0")
	}
	if out := Map(0, 4, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("Map(0) returned %d results", len(out))
	}
}

func TestRunEachJobExactlyOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	Run(n, 8, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("positive worker count must pass through")
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("non-positive worker count must normalize to >= 1")
	}
}
