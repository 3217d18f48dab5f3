package bench

import (
	"errors"
	"sync/atomic"
	"testing"

	"cashmere/internal/apps"
)

func TestRunParallelCoversAllIndices(t *testing.T) {
	defer SetParallelism(Parallelism())
	for _, p := range []int{1, 4} {
		SetParallelism(p)
		var hits [17]atomic.Int32
		if err := runParallel(len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", p, i, n)
			}
		}
	}
}

func TestRunParallelReturnsFirstErrorByIndex(t *testing.T) {
	defer SetParallelism(Parallelism())
	SetParallelism(8)
	e3, e9 := errors.New("e3"), errors.New("e9")
	err := runParallel(12, func(i int) error {
		switch i {
		case 3:
			return e3
		case 9:
			return e9
		}
		return nil
	})
	if err != e3 {
		t.Fatalf("err = %v, want the lowest-index error e3", err)
	}
}

// TestParallelScalabilityDeterministic is the harness's determinism guarantee:
// running the (variant x node-count) grid concurrently must produce output
// byte-identical to the sequential run, because every simulation owns a
// private kernel and RNG and results are assembled in grid order.
func TestParallelScalabilityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	defer SetParallelism(Parallelism())
	counts := []int{1, 2}

	SetParallelism(1)
	seqSU, seqAB, err := scalability("kmeans", [2]string{"figA", "figB"}, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	parSU, parAB, err := scalability("kmeans", [2]string{"figA", "figB"}, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seqSU.Format(), parSU.Format(); s != p {
		t.Fatalf("speedup figure differs between sequential and parallel runs:\n--- sequential\n%s--- parallel\n%s", s, p)
	}
	if s, p := seqAB.Format(), parAB.Format(); s != p {
		t.Fatalf("absolute figure differs between sequential and parallel runs:\n--- sequential\n%s--- parallel\n%s", s, p)
	}
}

// BenchmarkFig7Harness measures the wall-clock time of the raytracer
// scalability study (Fig. 7/8: 3 systems x {1,2,4,8,16} nodes) at different
// harness parallelism levels. This is the experiment the parallel harness
// exists for; the figures produced are identical at every level.
func BenchmarkFig7Harness(b *testing.B) {
	warm := func(b *testing.B) {
		b.Helper()
		// Warm the kernel-set cache so every level measures simulation
		// time, not first-use parsing.
		for _, v := range []apps.Variant{apps.Satin, apps.CashmereUnoptimized, apps.CashmereOptimized} {
			if _, err := kernelsFor("raytracer", v); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, p := range []int{1, 4} {
		b.Run(map[int]string{1: "parallel1", 4: "parallel4"}[p], func(b *testing.B) {
			defer SetParallelism(Parallelism())
			SetParallelism(p)
			warm(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ScalabilityPartitioned("raytracer", 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Intra-simulation partitioning: the same grid run one simulation at a
	// time, with each simulation split over 4 conservative partitions. This
	// is the orthogonal axis to harness parallelism — it speeds up a single
	// big simulation instead of running many at once.
	b.Run("partitions4", func(b *testing.B) {
		defer SetParallelism(Parallelism())
		SetParallelism(1)
		warm(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ScalabilityPartitioned("raytracer", 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
