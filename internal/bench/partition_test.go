package bench

import (
	"os"
	"runtime"
	"testing"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/simnet"
)

// TestPartitionedScalabilityDeterministic asserts the figure-level
// determinism contract of the partitioned scheduler: a scalability grid run
// with 4-way partitioned simulations renders byte-identically to the
// sequential grid.
func TestPartitionedScalabilityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	counts := []int{1, 4}
	seqSU, seqAB, err := scalability("kmeans", [2]string{"figA", "figB"}, counts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parSU, parAB, err := scalability("kmeans", [2]string{"figA", "figB"}, counts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seqSU.Format(), parSU.Format(); s != p {
		t.Fatalf("speedup figure differs between sequential and partitioned runs:\n--- sequential\n%s--- partitioned\n%s", s, p)
	}
	if s, p := seqAB.Format(), parAB.Format(); s != p {
		t.Fatalf("absolute figure differs between sequential and partitioned runs:\n--- sequential\n%s--- partitioned\n%s", s, p)
	}
}

// TestPartitionedServeSweepDeterministic does the same for the serving
// sweep: identical points with and without intra-simulation partitioning.
func TestPartitionedServeSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	base := ServeSweepConfig{
		Nodes: 4, Device: "gtx480", Seed: 1,
		Horizon: 150 * 1000 * 1000, // 150ms
		Loads:   []float64{0.8},
	}
	seqFig, _, err := LatencyVsLoad(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Partitions = 4
	parFig, _, err := LatencyVsLoad(base)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := seqFig.Format(), parFig.Format(); s != p {
		t.Fatalf("serve sweep differs between sequential and partitioned runs:\n--- sequential\n%s--- partitioned\n%s", s, p)
	}
}

// TestPartitionedSpeedup measures the wall-clock speedup of 4-way
// partitioning on one large simulation (the acceptance bar of the
// conservative scheduler: >= 2.5x on a 4+-core host). It needs real cores
// and a quiet machine, so it only runs when CASHMERE_SPEEDUP_TEST=1.
func TestPartitionedSpeedup(t *testing.T) {
	if os.Getenv("CASHMERE_SPEEDUP_TEST") != "1" {
		t.Skip("set CASHMERE_SPEEDUP_TEST=1 to run the wall-clock speedup assertion")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("needs >= 4 CPUs, have %d", runtime.NumCPU())
	}
	run := func(partitions int) (time.Duration, apps.Result) {
		start := time.Now()
		res, err := runVariant("raytracer", 16, apps.CashmereOptimized, partitions)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), res
	}
	// Warm caches, then take the best of 3 per layout to shed scheduler noise.
	run(1)
	best := func(p int) (time.Duration, apps.Result) {
		bd, br := run(p)
		for i := 0; i < 2; i++ {
			if d, r := run(p); d < bd {
				bd, br = d, r
			}
		}
		return bd, br
	}
	seqD, seqR := best(1)
	parD, parR := best(4)
	if seqR.Elapsed != parR.Elapsed {
		t.Fatalf("virtual trajectories diverged: sequential %v vs partitioned %v", seqR.Elapsed, parR.Elapsed)
	}
	speedup := float64(seqD) / float64(parD)
	t.Logf("sequential %v, 4 partitions %v, speedup %.2fx", seqD, parD, speedup)
	if speedup < 2.5 {
		t.Fatalf("4-way partitioned speedup %.2fx < 2.5x (sequential %v, partitioned %v)", speedup, seqD, parD)
	}
}

// LargeServeSweep is the large-cluster serving configuration of the
// partitioned-scheduler speedup study: 16 nodes, a single saturating load
// point, long horizon. One point is one big simulation, which is where
// intra-simulation partitioning pays off (the regular sweep already
// parallelizes across points).
func LargeServeSweep(partitions int) ServeSweepConfig {
	return ServeSweepConfig{
		Nodes: 16, Device: "gtx480",
		Horizon: simnet.Duration(time.Second), Seed: 1,
		Loads:      []float64{1.0},
		Partitions: partitions,
	}
}

// BenchmarkLargeServeSweep measures the wall-clock time of the 16-node
// single-point serving simulation, sequential vs 4-way partitioned — the
// large-cluster study where intra-simulation parallelism is the only
// available axis (the sweep has just one point).
func BenchmarkLargeServeSweep(b *testing.B) {
	for _, p := range []int{1, 4} {
		b.Run(map[int]string{1: "partitions1", 4: "partitions4"}[p], func(b *testing.B) {
			cfg := LargeServeSweep(p)
			cfg.Horizon = 200 * 1000 * 1000 // 200ms keeps the benchmark tractable
			for i := 0; i < b.N; i++ {
				if _, _, err := LatencyVsLoad(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
