package bench

import (
	"fmt"
	"strings"

	"cashmere/internal/apps"
	"cashmere/internal/device"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/tune"
)

// TuneDevices is the device slice of the committed tuned-vs-manual table in
// BENCH_kernels.json: one NVIDIA GPU, the AMD GPU and the Xeon Phi — the
// three architectures with distinct work-group limits and SIMD widths.
var TuneDevices = []string{"gtx480", "hd7970", "xeon_phi"}

// TunePoint is one row of the tuned-vs-hand-picked comparison: the
// hand-picked configuration is what core compiles without a tuning cache
// (MostSpecific level, translator geometry), priced under the same
// geometry-aware model as the tuned winner.
type TunePoint struct {
	App        string  `json:"app"`
	Kernel     string  `json:"kernel"`
	Device     string  `json:"device"`
	HandLevel  string  `json:"hand_level"`
	TunedLevel string  `json:"tuned_level"`
	TunedLocal []int64 `json:"tuned_local,omitempty"`
	HandNs     int64   `json:"hand_ns"`
	TunedNs    int64   `json:"tuned_ns"`
	Speedup    float64 `json:"speedup"`
	Evaluated  int     `json:"evaluated"`
	Pruned     int     `json:"pruned"`
}

// leafBytes approximates one leaf launch's host<->device transfer sizes for
// an app, from the same leaf parameters Fig. 6 uses.
func leafBytes(appName string, p map[string]int64) (in, out int64) {
	switch appName {
	case "raytracer":
		return p["ns"]*11*4 + 64, p["rows"] * p["w"] * 3
	case "matmul":
		return 4 * (p["n"]*p["p"] + p["p"]*p["m"]), 4 * p["n"] * p["m"]
	case "kmeans":
		return p["n"]*p["d"]*4 + p["k"]*p["d"]*4, p["n"] * 4
	case "nbody":
		return p["n"]*16 + p["nloc"]*16, p["nloc"] * 12
	}
	return 0, 0
}

// TuneRequest builds the tuning request for one app kernel on one device:
// the optimized-variant kernel set with the paper-scale leaf launch.
func TuneRequest(appName, dev string) (tune.Request, error) {
	d, ok := drivers()[appName]
	if !ok {
		return tune.Request{}, fmt.Errorf("bench: unknown app %q", appName)
	}
	ks, err := kernelsFor(appName, apps.CashmereOptimized)
	if err != nil {
		return tune.Request{}, err
	}
	spec, err := device.Lookup(dev)
	if err != nil {
		return tune.Request{}, err
	}
	in, out := leafBytes(appName, d.leafParams)
	return tune.Request{
		Set: ks, Device: spec, Params: d.leafParams,
		InBytes: in, OutBytes: out,
	}, nil
}

// TuneSweep tunes every app kernel on every device, filling the cache, and
// returns the tuned-vs-hand-picked comparison in deterministic (app, device)
// order.
func TuneSweep(devices []string, cache *tune.Cache) ([]TunePoint, error) {
	h := hdl.Library()
	var points []TunePoint
	for _, appName := range AppNames {
		for _, dev := range devices {
			req, err := TuneRequest(appName, dev)
			if err != nil {
				return nil, err
			}
			e, err := cache.TuneOnce(req, h)
			if err != nil {
				return nil, err
			}
			hand, err := h.MostSpecific(req.Set.Levels(), req.Device.Leaf)
			if err != nil {
				return nil, err
			}
			p := TunePoint{
				App: appName, Kernel: req.Set.Name, Device: dev,
				HandLevel: hand, TunedLevel: e.Level, TunedLocal: e.Local,
				HandNs: e.BaselineNs, TunedNs: e.ServiceNs,
				Evaluated: e.Evaluated, Pruned: e.Pruned,
			}
			if e.ServiceNs > 0 {
				p.Speedup = float64(e.BaselineNs) / float64(e.ServiceNs)
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// FormatTuneTable renders the sweep as the "tune" experiment's table.
func FormatTuneTable(points []TunePoint) string {
	var b strings.Builder
	b.WriteString("== tune: auto-tuned vs hand-picked kernel configurations ==\n")
	fmt.Fprintf(&b, "%-10s %-8s  %-10s %-16s %12s %12s %8s  %s\n",
		"app", "device", "hand", "tuned", "hand_ns", "tuned_ns", "speedup", "search")
	for _, p := range points {
		tuned := p.TunedLevel
		if len(p.TunedLocal) > 0 {
			tuned += fmt.Sprint(p.TunedLocal)
		}
		fmt.Fprintf(&b, "%-10s %-8s  %-10s %-16s %12d %12d %7.2fx  %d eval / %d pruned\n",
			p.App, p.Device, p.HandLevel, tuned, p.HandNs, p.TunedNs, p.Speedup,
			p.Evaluated, p.Pruned)
	}
	return b.String()
}
