package bench

import (
	"fmt"
	"sync"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
)

// AppNames lists the four evaluation applications in paper order.
var AppNames = []string{"raytracer", "matmul", "kmeans", "nbody"}

// driver adapts one application to the harness.
type driver struct {
	name       string
	kernel     string
	kernels    func(apps.Variant) (*codegen.KernelSet, error)
	run        func(cl *core.Cluster, v apps.Variant) (apps.Result, error)
	leafParams map[string]int64 // representative kernel launch for Fig. 6
	leafFlops  float64          // paper-convention operation count of that launch
}

// drivers returns the app descriptor table. The table and the problem
// descriptors it captures are immutable, so it is built once and shared;
// every experiment used to rebuild it per simulation.
var (
	driverTable map[string]driver
	driverOnce  sync.Once
)

func drivers() map[string]driver {
	driverOnce.Do(func() { driverTable = buildDrivers() })
	return driverTable
}

// kernelSets memoizes parsed and checked kernel sets keyed "app/variant".
// Kernel sets are safe to share across concurrent simulations: registration
// and compilation only read the programs (no simulation translates them),
// and each set's compile cache is a map under the set's mutex.
var kernelSets sync.Map

func kernelsFor(appName string, v apps.Variant) (*codegen.KernelSet, error) {
	key := appName + "/" + shortVariant(v)
	if ks, ok := kernelSets.Load(key); ok {
		return ks.(*codegen.KernelSet), nil
	}
	d, ok := drivers()[appName]
	if !ok {
		return nil, fmt.Errorf("bench: unknown app %q", appName)
	}
	ks, err := d.kernels(v)
	if err != nil {
		return nil, err
	}
	actual, _ := kernelSets.LoadOrStore(key, ks)
	return actual.(*codegen.KernelSet), nil
}

func buildDrivers() map[string]driver {
	rt, mm, km, nb := apps.PaperRaytracer(), apps.PaperMatmul(), apps.PaperKMeans(), apps.PaperNBody()
	return map[string]driver{
		"raytracer": {
			name: "raytracer", kernel: "raytrace", kernels: apps.RaytracerKernels,
			run: func(cl *core.Cluster, v apps.Variant) (apps.Result, error) {
				return apps.RunRaytracer(cl, rt, v)
			},
			leafParams: map[string]int64{
				"w": int64(rt.W), "h": int64(rt.H), "y0": 0, "rows": int64(rt.LeafRows),
				"samples": int64(rt.Samples), "ns": 8, "seed0": 1,
			},
			leafFlops: rt.Flops() / float64(rt.H/rt.LeafRows),
		},
		"matmul": {
			name: "matmul", kernel: "matmul", kernels: apps.MatmulKernels,
			run: func(cl *core.Cluster, v apps.Variant) (apps.Result, error) {
				return apps.RunMatmul(cl, mm, v)
			},
			leafParams: map[string]int64{
				"n": int64(mm.LeafTile), "m": int64(mm.LeafTile), "p": int64(mm.N),
			},
			leafFlops: 2 * float64(mm.LeafTile) * float64(mm.LeafTile) * float64(mm.N),
		},
		"kmeans": {
			name: "kmeans", kernel: "kmeans", kernels: apps.KMeansKernels,
			run: func(cl *core.Cluster, v apps.Variant) (apps.Result, error) {
				return apps.RunKMeans(cl, km, v)
			},
			leafParams: map[string]int64{
				"n": int64(km.LeafPoints), "k": int64(km.K), "d": int64(km.D),
			},
			leafFlops: 3 * float64(km.LeafPoints) * float64(km.K) * float64(km.D),
		},
		"nbody": {
			name: "nbody", kernel: "nbody", kernels: apps.NBodyKernels,
			run: func(cl *core.Cluster, v apps.Variant) (apps.Result, error) {
				return apps.RunNBody(cl, nb, v)
			},
			leafParams: map[string]int64{
				"nloc": int64(nb.LeafBodies), "off": 0, "n": int64(nb.N),
			},
			leafFlops: 20 * float64(nb.LeafBodies) * float64(nb.N),
		},
	}
}

// Table2 prints the application classification of Table II.
func Table2() string {
	return `== tab2: The classes of applications used to evaluate Cashmere ==
application   type        computation  communication
raytracer     irregular   heavy        light
matmul        regular     heavy        heavy
k-means       iterative   moderate     light
n-body        iterative   heavy        moderate
`
}

// Fig6KernelPerformance reproduces Fig. 6: per-device kernel GFLOPS for the
// unoptimized and optimized version of each application's kernel, execution
// time only (no transfers).
func Fig6KernelPerformance() (Figure, error) {
	h := hdl.Library()
	fig := Figure{
		ID: "fig6", Title: "Kernel performance, unoptimized vs optimized",
		XLabel: "device#", YLabel: "GFLOPS",
		Notes: []string{"x encodes the device: " + fmt.Sprint(hdl.AcceleratorLeaves)},
	}
	for _, appName := range AppNames {
		d := drivers()[appName]
		for _, variant := range []apps.Variant{apps.CashmereUnoptimized, apps.CashmereOptimized} {
			ks, err := kernelsFor(appName, variant)
			if err != nil {
				return fig, err
			}
			s := Series{Label: fmt.Sprintf("%s/%s", appName, shortVariant(variant))}
			for i, leaf := range hdl.AcceleratorLeaves {
				c, err := ks.Compile(leaf, h)
				if err != nil {
					return fig, err
				}
				cost, err := c.Cost(d.leafParams)
				if err != nil {
					return fig, err
				}
				spec, err := device.Lookup(leaf)
				if err != nil {
					return fig, err
				}
				// Report with the paper-convention operation count, as the
				// application-level numbers do, so Fig. 6 and Table III use
				// the same units.
				s.X = append(s.X, float64(i))
				s.Y = append(s.Y, d.leafFlops/spec.KernelTime(cost).Seconds()/1e9)
			}
			fig.Series = append(fig.Series, s)
		}
	}
	return fig, nil
}

func shortVariant(v apps.Variant) string {
	switch v {
	case apps.Satin:
		return "satin"
	case apps.CashmereUnoptimized:
		return "unopt"
	default:
		return "opt"
	}
}

// ScaleNodeCounts are the cluster sizes of the scalability studies.
var ScaleNodeCounts = []int{1, 2, 4, 8, 16}

// runVariant executes the app's paper problem on n gtx480 nodes, with the
// simulation split into the given number of conservatively synchronized
// partitions (<= 1 runs the classic sequential kernel; trajectories are
// identical either way). Each call builds a private cluster (its own simnet
// kernels and RNGs), so concurrent calls are independent.
func runVariant(appName string, n int, v apps.Variant, partitions int) (apps.Result, error) {
	d := drivers()[appName]
	cfg := core.DefaultConfig(n, "gtx480")
	cfg.Partitions = partitions
	if v == apps.Satin {
		cfg.Satin.WorkersPerNode = 8
		// Satin's CPU leaves run for seconds; coarse idle backoff keeps the
		// event volume of the simulation bounded.
		cfg.Satin.MaxIdleBackoff = 50 * time.Millisecond
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return apps.Result{}, err
	}
	ks, err := kernelsFor(appName, v)
	if err != nil {
		return apps.Result{}, err
	}
	if err := cl.Register(ks); err != nil {
		return apps.Result{}, err
	}
	return d.run(cl, v)
}

// ScalabilityPartitioned reproduces one pair of scalability figures
// (speedup and absolute GFLOPS on 1-16 GTX480 nodes, three systems):
//
//	raytracer -> Fig. 7 /  8
//	matmul    -> Fig. 9 / 10
//	kmeans    -> Fig. 11 / 12
//	nbody     -> Fig. 13 / 14
//
// Every simulation is split into the given number of intra-simulation
// partitions (clamped per cluster to its node count). The figures are
// byte-identical at every partition count; only the wall-clock time
// changes.
func ScalabilityPartitioned(appName string, partitions int) (speedup, absolute Figure, err error) {
	ids := map[string][2]string{
		"raytracer": {"fig7", "fig8"},
		"matmul":    {"fig9", "fig10"},
		"kmeans":    {"fig11", "fig12"},
		"nbody":     {"fig13", "fig14"},
	}
	id, ok := ids[appName]
	if !ok {
		return speedup, absolute, fmt.Errorf("bench: unknown app %q", appName)
	}
	return scalability(appName, id, ScaleNodeCounts, partitions)
}

// scalability runs the (variant x node-count) grid of one scalability study.
// The simulations are independent — each owns a private cluster — so they run
// concurrently up to Parallelism(); results land in per-index slots and the
// series are assembled in grid order, making the output independent of the
// parallelism level.
func scalability(appName string, id [2]string, nodeCounts []int, partitions int) (speedup, absolute Figure, err error) {
	speedup = Figure{ID: id[0], Title: appName + " scalability (speedup vs 1 node)", XLabel: "nodes", YLabel: "speedup"}
	absolute = Figure{ID: id[1], Title: appName + " absolute performance", XLabel: "nodes", YLabel: "GFLOPS"}
	variants := []apps.Variant{apps.Satin, apps.CashmereUnoptimized, apps.CashmereOptimized}

	// Warm the kernel-set cache sequentially so parallel workers share the
	// parsed programs instead of racing to parse them redundantly.
	for _, v := range variants {
		if _, err := kernelsFor(appName, v); err != nil {
			return speedup, absolute, err
		}
	}

	type spec struct {
		v apps.Variant
		n int
	}
	var specs []spec
	for _, v := range variants {
		for _, n := range nodeCounts {
			specs = append(specs, spec{v: v, n: n})
		}
	}
	results := make([]apps.Result, len(specs))
	err = runParallel(len(specs), func(i int) error {
		res, err := runVariant(appName, specs[i].n, specs[i].v, partitions)
		if err != nil {
			return fmt.Errorf("%s/%s on %d nodes: %w", appName, specs[i].v, specs[i].n, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return speedup, absolute, err
	}

	i := 0
	for _, v := range variants {
		su := Series{Label: shortVariant(v)}
		ab := Series{Label: shortVariant(v)}
		var base float64
		for _, n := range nodeCounts {
			res := results[i]
			i++
			if n == 1 {
				base = res.Elapsed.Seconds()
			}
			su.X = append(su.X, float64(n))
			su.Y = append(su.Y, base/res.Elapsed.Seconds())
			ab.X = append(ab.X, float64(n))
			ab.Y = append(ab.Y, res.GFLOPS)
		}
		speedup.Series = append(speedup.Series, su)
		absolute.Series = append(absolute.Series, ab)
	}
	return speedup, absolute, nil
}
