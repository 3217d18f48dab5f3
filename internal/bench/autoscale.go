package bench

import (
	"fmt"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/serve"
	"cashmere/internal/simnet"
)

// AutoscaleLoads is the default mean-load sweep of the elasticity study, as
// fractions of the modeled saturation throughput. Each point runs the same
// diurnal workload twice — static full fleet vs autoscaled — so the rows
// read as "what does elasticity cost and save at this utilization".
var AutoscaleLoads = []float64{0.5, 0.7, 0.9}

// AutoscalePoint is one row of the elasticity sweep: one diurnal workload
// run on the static full fleet and again under the autoscaler.
type AutoscalePoint struct {
	LoadFactor    float64 `json:"load_factor"`
	OfferedRPS    float64 `json:"offered_rps"`
	StaticNodeSec float64 `json:"static_node_sec"`
	AutoNodeSec   float64 `json:"auto_node_sec"`
	SavingPct     float64 `json:"saving_pct"`
	StaticSLOPct  float64 `json:"static_slo_pct"`
	AutoSLOPct    float64 `json:"auto_slo_pct"`
	StaticP99Ms   float64 `json:"static_p99_ms"`
	AutoP99Ms     float64 `json:"auto_p99_ms"`
	ScaleOuts     int64   `json:"scale_outs"`
	ScaleIns      int64   `json:"scale_ins"`
	DrainsForced  int64   `json:"drains_forced"`
	Migrated      int64   `json:"migrated"`
}

// AutoscaleSwing and AutoscalePeriod shape the diurnal modulation the
// elasticity sweep applies to every tenant: swing s gives a peak:trough
// ratio of (1+s)/(1-s), so 2/3 is a 5x swing.
const (
	AutoscaleSwing  = 2.0 / 3
	AutoscalePeriod = 300 * time.Millisecond
)

// AutoscaleSweepConfig parameterizes NodeHoursVsLoad.
type AutoscaleSweepConfig struct {
	Nodes   int             // fleet size (one device per node)
	Device  string          // device catalog name
	Horizon simnet.Duration // arrival horizon per run (positive; NodeHoursVsLoad fills no default)
	Seed    int64           // RNG seed (same for both runs of a point)
	Loads   []float64       // mean-load factors; nil = AutoscaleLoads
	// Partitions splits each simulation into that many parallel event
	// loops (<= 1: sequential). Output is byte-identical either way.
	Partitions int
}

// DefaultAutoscaleSweep is the configuration behind the autoscale section
// of BENCH_serve.json (`cashmere-serve -sweep`, `make bench-serve`): a
// 4-node fleet under the 5x diurnal swing (AutoscaleSwing), autoscaling
// down to a 2-node floor, with a 900 ms arrival horizon.
func DefaultAutoscaleSweep() AutoscaleSweepConfig {
	return AutoscaleSweepConfig{
		Nodes:   4,
		Device:  "gtx480",
		Horizon: simnet.Duration(900 * time.Millisecond),
		Seed:    1,
	}
}

// sweepAutoscaler is the controller tuning of the elasticity sweep: a
// 2-node floor and a faster scale-in than the serving default, so the fleet
// tracks the trough of the swing instead of coasting on hysteresis.
func sweepAutoscaler() *serve.AutoscaleConfig {
	return &serve.AutoscaleConfig{Min: 2, Initial: 2, DownTicks: 2, Cooldown: 20 * time.Millisecond}
}

// NodeHoursVsLoad sweeps mean offered load under a diurnal swing and
// compares the static full fleet against the autoscaled one: provisioned
// node-seconds, SLO attainment and p99 for both, per point. The claim the
// committed numbers back: through a 5x swing the autoscaler holds p99
// within the SLO at ≥30% fewer node-seconds than static provisioning.
// Points run concurrently under the harness parallelism; output is
// byte-identical at any setting.
func NodeHoursVsLoad(cfg AutoscaleSweepConfig) (Figure, []AutoscalePoint, error) {
	loads := cfg.Loads
	if len(loads) == 0 {
		loads = AutoscaleLoads
	}
	if cfg.Nodes < 1 {
		return Figure{}, nil, core.ErrNoNodes
	}
	tuning := sweepAutoscaler()

	base, err := serve.StandardWorkload(1)
	if err != nil {
		return Figure{}, nil, err
	}
	capacity, err := base.CapacityRPS(cfg.Device, cfg.Nodes)
	if err != nil {
		return Figure{}, nil, err
	}

	// One serving run of the diurnal workload; as nil = static fleet.
	run := func(load float64, as *serve.AutoscaleConfig) (*serve.Report, error) {
		w, err := serve.StandardWorkload(1)
		if err != nil {
			return nil, err
		}
		w.ScaleRates(load * capacity)
		for i := range w.Tenants {
			a := &w.Tenants[i].Arrival
			a.Kind = serve.Diurnal
			a.Period = AutoscalePeriod
			a.Swing = AutoscaleSwing
		}
		ccfg := core.DefaultConfig(cfg.Nodes, cfg.Device)
		ccfg.Seed = cfg.Seed
		ccfg.Partitions = cfg.Partitions
		cl, err := core.NewCluster(ccfg)
		if err != nil {
			return nil, err
		}
		for _, ks := range w.KernelSets {
			if err := cl.Register(ks); err != nil {
				return nil, err
			}
		}
		scfg := serve.DefaultConfig(w)
		scfg.Horizon = cfg.Horizon
		scfg.Autoscale = as
		return serve.Run(cl, scfg)
	}

	points := make([]AutoscalePoint, len(loads))
	err = runParallel(len(loads), func(i int) error {
		static, err := run(loads[i], nil)
		if err != nil {
			return fmt.Errorf("load %.2f static: %w", loads[i], err)
		}
		auto, err := run(loads[i], tuning)
		if err != nil {
			return fmt.Errorf("load %.2f autoscaled: %w", loads[i], err)
		}
		e := auto.Elastic
		if e == nil {
			return fmt.Errorf("load %.2f: autoscaled run has no elastic report", loads[i])
		}
		sloPct := func(r *serve.Report) float64 {
			if r.Completed == 0 {
				return 0
			}
			return 100 * float64(r.SLOOk) / float64(r.Completed)
		}
		points[i] = AutoscalePoint{
			LoadFactor:    loads[i],
			OfferedRPS:    auto.OfferedRPS,
			StaticNodeSec: e.StaticNodeSeconds,
			AutoNodeSec:   e.NodeSeconds,
			SavingPct:     100 * (1 - e.NodeSeconds/e.StaticNodeSeconds),
			StaticSLOPct:  sloPct(static),
			AutoSLOPct:    sloPct(auto),
			StaticP99Ms:   float64(static.P99) / 1e6,
			AutoP99Ms:     float64(auto.P99) / 1e6,
			ScaleOuts:     e.ScaleOuts,
			ScaleIns:      e.ScaleIns,
			DrainsForced:  e.DrainsForced,
			Migrated:      e.Migrated,
		}
		return nil
	})
	if err != nil {
		return Figure{}, nil, err
	}

	fig := Figure{
		ID:     "autoscale",
		Title:  "node-seconds and SLO attainment: static fleet vs autoscaled (5x diurnal swing)",
		XLabel: "mean load factor",
		YLabel: "node-s / % / ms",
		Notes: []string{
			fmt.Sprintf("%d nodes of %s, swing %.2f (peak:trough %.1fx), period %v, horizon %v",
				cfg.Nodes, cfg.Device, AutoscaleSwing, (1+AutoscaleSwing)/(1-AutoscaleSwing),
				AutoscalePeriod, simnet.Duration(cfg.Horizon)),
			fmt.Sprintf("autoscaler floor %d nodes, interval %v, drain grace %v",
				tuning.Min, serve.AutoscaleInterval, serve.AutoscaleDrainGrace),
		},
	}
	x := make([]float64, len(points))
	var static, auto, saving, slo []float64
	for i, p := range points {
		x[i] = p.LoadFactor
		static = append(static, p.StaticNodeSec)
		auto = append(auto, p.AutoNodeSec)
		saving = append(saving, p.SavingPct)
		slo = append(slo, p.AutoSLOPct)
	}
	fig.Series = []Series{
		{Label: "static node-s", X: x, Y: static},
		{Label: "autoscaled node-s", X: x, Y: auto},
		{Label: "saving (%)", X: x, Y: saving},
		{Label: "autoscaled SLO (%)", X: x, Y: slo},
	}
	return fig, points, nil
}
