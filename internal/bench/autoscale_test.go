package bench

import (
	"encoding/json"
	"testing"
	"time"

	"cashmere/internal/simnet"
)

// TestAutoscaleSweepMeetsElasticityTarget runs the committed elasticity
// configuration at its middle load point and asserts the headline claim of
// BENCH_serve.json's autoscale section: through the 5x diurnal swing the
// autoscaler saves at least 30% of the static fleet's node-seconds while
// holding SLO attainment.
func TestAutoscaleSweepMeetsElasticityTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	cfg := DefaultAutoscaleSweep()
	cfg.Loads = []float64{0.7}
	_, pts, err := NodeHoursVsLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	t.Logf("static %.4g node-s, autoscaled %.4g (saving %.1f%%), SLO %.1f%% static / %.1f%% auto, p99 %.1f/%.1f ms",
		p.StaticNodeSec, p.AutoNodeSec, p.SavingPct, p.StaticSLOPct, p.AutoSLOPct,
		p.StaticP99Ms, p.AutoP99Ms)
	if p.SavingPct < 30 {
		t.Fatalf("autoscaler saved %.1f%% node-seconds, want >= 30%%", p.SavingPct)
	}
	if p.AutoSLOPct < 95 {
		t.Fatalf("autoscaled SLO attainment %.1f%%, want >= 95%%", p.AutoSLOPct)
	}
	if p.ScaleOuts == 0 || p.ScaleIns == 0 {
		t.Fatalf("fleet never moved: %d scale-outs, %d scale-ins", p.ScaleOuts, p.ScaleIns)
	}
}

// TestAutoscaleSweepDeterministicUnderParallelism extends the harness's
// determinism guarantee to the elasticity sweep.
func TestAutoscaleSweepDeterministicUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	defer SetParallelism(Parallelism())
	cfg := DefaultAutoscaleSweep()
	cfg.Horizon = simnet.Duration(450 * time.Millisecond)
	cfg.Loads = []float64{0.5, 0.9}

	SetParallelism(1)
	figSeq, ptsSeq, err := NodeHoursVsLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	figPar, ptsPar, err := NodeHoursVsLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := figSeq.Format(), figPar.Format(); s != p {
		t.Fatalf("autoscale figure differs between sequential and parallel runs:\n--- sequential\n%s--- parallel\n%s", s, p)
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
		t.Fatalf("autoscale rows differ between sequential and parallel runs:\n--- sequential\n%s\n--- parallel\n%s", seqJSON, parJSON)
	}
}

// BenchmarkAutoscaleSweep times the full elasticity sweep (the workload
// behind the autoscale section of BENCH_serve.json).
func BenchmarkAutoscaleSweep(b *testing.B) {
	cfg := DefaultAutoscaleSweep()
	for i := 0; i < b.N; i++ {
		if _, _, err := NodeHoursVsLoad(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
