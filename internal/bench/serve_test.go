package bench

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/simnet"
)

// TestServeSweepDeterministicUnderParallelism extends the harness's
// determinism guarantee to the serving experiment: the latency-vs-load
// sweep — including the log-bucketed latency quantiles and the JSON rows
// committed as BENCH_serve.json — must be byte-identical whether the points
// run sequentially or concurrently.
func TestServeSweepDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	defer SetParallelism(Parallelism())
	cfg := ServeSweepConfig{
		Nodes: 2, Device: "gtx480",
		Horizon: simnet.Duration(150 * time.Millisecond),
		Seed:    7,
		Loads:   []float64{0.4, 1.3},
	}

	SetParallelism(1)
	figSeq, ptsSeq, err := LatencyVsLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	figPar, ptsPar, err := LatencyVsLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if s, p := figSeq.Format(), figPar.Format(); s != p {
		t.Fatalf("serve figure differs between sequential and parallel runs:\n--- sequential\n%s--- parallel\n%s", s, p)
	}
	seqJSON, err := json.Marshal(ptsSeq)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(ptsPar)
	if err != nil {
		t.Fatal(err)
	}
	if string(seqJSON) != string(parJSON) {
		t.Fatalf("serve sweep rows differ between sequential and parallel runs:\n--- sequential\n%s\n--- parallel\n%s", seqJSON, parJSON)
	}
}

// TestServeSweepShowsSaturationKnee asserts the qualitative shape of the
// committed figure on a reduced sweep: bounded p99 and no shedding well
// below capacity, rising p99 and engaged shedding above it.
func TestServeSweepShowsSaturationKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	_, pts, err := LatencyVsLoad(ServeSweepConfig{
		Nodes: 2, Device: "gtx480",
		Horizon: simnet.Duration(400 * time.Millisecond),
		Seed:    1,
		Loads:   []float64{0.3, 2.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	low, high := pts[0], pts[1]
	if low.ShedPct > 2 {
		t.Fatalf("shed %.1f%% at 0.3 load, want ~0", low.ShedPct)
	}
	if high.ShedPct < 10 {
		t.Fatalf("shed %.1f%% at 2.0 load, want substantial shedding", high.ShedPct)
	}
	if high.P99Ms <= low.P99Ms {
		t.Fatalf("p99 %.2fms at overload <= %.2fms below capacity", high.P99Ms, low.P99Ms)
	}
	if high.GoodputRPS <= 0 {
		t.Fatal("goodput collapsed to zero under overload")
	}
}

// TestServeSweepsRejectNoNodes: both serving sweeps fail on a node count
// below one, as a single serving run does, instead of sweeping one node
// (`cashmere-serve -sweep -nodes -3`).
func TestServeSweepsRejectNoNodes(t *testing.T) {
	horizon := simnet.Duration(10 * time.Millisecond)
	for _, n := range []int{0, -3} {
		_, _, err := LatencyVsLoad(ServeSweepConfig{Nodes: n, Device: "gtx480", Horizon: horizon, Seed: 1, Loads: []float64{0.5}})
		if !errors.Is(err, core.ErrNoNodes) {
			t.Errorf("LatencyVsLoad at %d nodes: err = %v, want %v", n, err, core.ErrNoNodes)
		}
		acfg := DefaultAutoscaleSweep()
		acfg.Nodes, acfg.Horizon, acfg.Loads = n, horizon, []float64{0.5}
		if _, _, err := NodeHoursVsLoad(acfg); !errors.Is(err, core.ErrNoNodes) {
			t.Errorf("NodeHoursVsLoad at %d nodes: err = %v, want %v", n, err, core.ErrNoNodes)
		}
	}
}
