package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"cashmere/internal/apps"
	"cashmere/internal/bench"
	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/satin"
	"cashmere/internal/serve"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
)

// workloads are the benchmark's five workloads. Each stresses different
// layers; README.md and BENCHMARK.json record why each exists and what
// should move it.
var workloads = []*workload{
	{
		name: "scale-raytracer",
		prepare: func(o options, c *clock) ([]*sim, error) {
			return prepareScale("raytracer", o, c)
		},
		summarize: summarizeScale,
		verify: func(o options) []check {
			return verifyApps([]string{"raytracer"}, cashmereVariants, gtx480Nodes(2), o.seed)
		},
	},
	{
		name: "scale-matmul",
		prepare: func(o options, c *clock) ([]*sim, error) {
			return prepareScale("matmul", o, c)
		},
		summarize: summarizeScale,
		verify: func(o options) []check {
			return verifyApps([]string{"matmul"}, cashmereVariants, gtx480Nodes(2), o.seed)
		},
	},
	{
		name:      "hetero",
		prepare:   prepareHetero,
		summarize: summarizeHetero,
		verify: func(o options) []check {
			nodes := []core.NodeSpec{{Devices: []string{"gtx480"}}, {Devices: []string{"k20", "xeon_phi"}}}
			return verifyApps(bench.AppNames, []apps.Variant{apps.CashmereOptimized}, nodes, o.seed)
		},
	},
	{
		name:      "serve",
		prepare:   prepareServe,
		summarize: summarizeServe,
		verify: func(o options) []check {
			// The kernels the service runs; the accounting checks run on the
			// timed reports.
			return verifyApps([]string{"matmul", "kmeans"}, []apps.Variant{apps.CashmereOptimized}, gtx480Nodes(2), o.seed)
		},
	},
	{
		name:      "dataflow",
		prepare:   prepareDataflow,
		summarize: summarizeDataflow,
		verify:    verifyDataflow,
	},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// appDef adapts one evaluation application at its paper problem size (a
// quarter of it for the raytracer and k-means in the quick form).
type appDef struct {
	kernels     func(apps.Variant) (*codegen.KernelSet, error)
	kernelsCall string
	runCall     string
	run         func(cl *core.Cluster, v apps.Variant, o options) (apps.Result, error)
}

var appDefs = map[string]appDef{
	"raytracer": {apps.RaytracerKernels, "apps.RaytracerKernels", "apps.RunRaytracer",
		func(cl *core.Cluster, v apps.Variant, o options) (apps.Result, error) {
			p := apps.PaperRaytracer()
			p.Seed = o.seed
			if o.quick {
				p.H /= 4
			}
			return apps.RunRaytracer(cl, p, v)
		}},
	"matmul": {apps.MatmulKernels, "apps.MatmulKernels", "apps.RunMatmul",
		func(cl *core.Cluster, v apps.Variant, _ options) (apps.Result, error) {
			return apps.RunMatmul(cl, apps.PaperMatmul(), v)
		}},
	"kmeans": {apps.KMeansKernels, "apps.KMeansKernels", "apps.RunKMeans",
		func(cl *core.Cluster, v apps.Variant, o options) (apps.Result, error) {
			p := apps.PaperKMeans()
			if o.quick {
				p.N /= 4
			}
			return apps.RunKMeans(cl, p, v)
		}},
	"nbody": {apps.NBodyKernels, "apps.NBodyKernels", "apps.RunNBody",
		func(cl *core.Cluster, v apps.Variant, _ options) (apps.Result, error) {
			return apps.RunNBody(cl, apps.PaperNBody(), v)
		}},
}

// appSim prepares one paper-scale application run on the given nodes.
func appSim(c *clock, o options, app string, v apps.Variant, nodes []core.NodeSpec, ks *codegen.KernelSet) (*sim, error) {
	d := appDefs[app]
	cfg := core.DefaultConfig(len(nodes), "gtx480")
	cfg.Nodes = nodes
	cfg.Seed = o.seed
	cfg.Partitions = o.parts(len(nodes))
	if v == apps.Satin {
		// As in the scalability harness: eight CPU workers per node, and a
		// coarse idle backoff because Satin's CPU leaves run for seconds.
		cfg.Satin.WorkersPerNode = 8
		cfg.Satin.MaxIdleBackoff = 50 * time.Millisecond
	}
	cl, err := newCluster(c, cfg, ks)
	if err != nil {
		return nil, err
	}
	return &sim{
		label: fmt.Sprintf("%s/%s/%s", app, shortVariant(v), describeNodes(nodes)),
		call:  d.runCall, nodes: len(nodes), cl: cl, app: app, variant: shortVariant(v),
		run: func(s *sim) error {
			res, err := d.run(s.cl, v, o)
			s.elapsed, s.gflops = res.Elapsed, res.GFLOPS
			return err
		},
	}, nil
}

func kernelSet(c *clock, app string, v apps.Variant) (*codegen.KernelSet, error) {
	var ks *codegen.KernelSet
	err := c.KernelSet(appDefs[app].kernelsCall, func() (err error) {
		ks, err = appDefs[app].kernels(v)
		return err
	})
	return ks, err
}

var (
	scaleNodeCounts  = []int{1, 2, 4, 8, 16}
	scaleVariants    = []apps.Variant{apps.Satin, apps.CashmereUnoptimized, apps.CashmereOptimized}
	cashmereVariants = []apps.Variant{apps.CashmereUnoptimized, apps.CashmereOptimized}
)

func shortVariant(v apps.Variant) string {
	switch v {
	case apps.Satin:
		return "satin"
	case apps.CashmereUnoptimized:
		return "unopt"
	}
	return "opt"
}

// describeNodes names a node list compactly, e.g. "16xgtx480" or
// "10xgtx480,2xc2050,1xk20+xeon_phi".
func describeNodes(nodes []core.NodeSpec) string {
	var parts []string
	count := 0
	for i, n := range nodes {
		count++
		key := strings.Join(n.Devices, "+")
		if i+1 == len(nodes) || strings.Join(nodes[i+1].Devices, "+") != key {
			parts = append(parts, fmt.Sprintf("%dx%s", count, key))
			count = 0
		}
	}
	return strings.Join(parts, ",")
}

func gtx480Nodes(n int) []core.NodeSpec {
	nodes := make([]core.NodeSpec, n)
	for i := range nodes {
		nodes[i] = core.NodeSpec{Devices: []string{"gtx480"}}
	}
	return nodes
}

// prepareScale sets up the scalability grid of Figs. 7-14: every variant on
// every node count of GTX480 nodes.
func prepareScale(app string, o options, c *clock) ([]*sim, error) {
	counts, variants := scaleNodeCounts, scaleVariants
	if o.quick {
		counts, variants = []int{2}, []apps.Variant{apps.CashmereOptimized}
	}
	var sims []*sim
	for _, v := range variants {
		ks, err := kernelSet(c, app, v)
		if err != nil {
			return nil, err
		}
		for _, n := range counts {
			s, err := appSim(c, o, app, v, gtx480Nodes(n), ks)
			if err != nil {
				return nil, err
			}
			sims = append(sims, s)
		}
	}
	return sims, nil
}

// Paper anchors (Sec. V-B.2, Table III), in GFLOPS.
var (
	paperMatmul = map[int]float64{8: 2800, 16: 3716}
	paperTable3 = map[string]float64{"raytracer": 1883, "matmul": 3927, "kmeans": 10644, "nbody": 13517}
)

func summarizeScale(sims []*sim, _ options) (map[string]float64, []check) {
	m := map[string]float64{}
	opt := map[int]*sim{}
	var virtual float64
	var fallbacks []string
	for _, s := range sims {
		virtual += s.elapsed.Seconds()
		if s.variant == "opt" {
			opt[s.nodes] = s
		}
		if s.variant != "satin" && s.fallbacks > 0 {
			fallbacks = append(fallbacks, fmt.Sprintf("%s: %d", s.label, s.fallbacks))
		}
	}
	lo, hi := math.MaxInt, 0
	for n := range opt {
		lo, hi = min(lo, n), max(hi, n)
	}
	m["virtual_s"] = virtual
	m["speedup_16"] = float64(opt[lo].elapsed) / float64(opt[hi].elapsed)
	m["gflops_16"] = opt[hi].gflops
	m["failed_frac"] = failedFrac(sims)
	if sims[0].app == "matmul" && opt[8] != nil && opt[16] != nil {
		m["paper_err"] = (math.Abs(math.Log2(opt[8].gflops/paperMatmul[8])) +
			math.Abs(math.Log2(opt[16].gflops/paperMatmul[16]))) / 2
	}
	return m, []check{{
		Name: "cashmere variants: core.cpu_fallbacks == 0", OK: len(fallbacks) == 0,
		Detail: strings.Join(fallbacks, ", "),
	}}
}

// failedFrac is launch failures (CPU fallbacks) over attempted launches.
func failedFrac(sims []*sim) float64 {
	var launches, fallbacks int64
	for _, s := range sims {
		launches += s.launches
		fallbacks += s.fallbacks
	}
	return ratio(float64(fallbacks), float64(launches+fallbacks))
}

// prepareHetero sets up Table III and Fig. 15: each application (optimized
// kernels) on its heterogeneous configuration, on one node of every device
// set that configuration uses (the efficiency denominator), and on 16
// GTX480 nodes (the homogeneous efficiency of Sec. V-B).
func prepareHetero(o options, c *clock) ([]*sim, error) {
	configs := bench.Table3Configs()
	appNames := bench.AppNames
	if o.quick {
		appNames = []string{"kmeans"}
	}
	var sims []*sim
	for _, app := range appNames {
		ks, err := kernelSet(c, app, apps.CashmereOptimized)
		if err != nil {
			return nil, err
		}
		add := func(variant string, nodes []core.NodeSpec) error {
			s, err := appSim(c, o, app, apps.CashmereOptimized, nodes, ks)
			if err == nil {
				s.variant = variant
				sims = append(sims, s)
			}
			return err
		}
		het := configs[app].Nodes
		if err := add("het", het); err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, n := range het {
			key := strings.Join(n.Devices, "+")
			if seen[key] {
				continue
			}
			seen[key] = true
			if err := add("single:"+key, []core.NodeSpec{n}); err != nil {
				return nil, err
			}
		}
		if !o.quick {
			if err := add("hom16", gtx480Nodes(16)); err != nil {
				return nil, err
			}
		}
	}
	return sims, nil
}

func summarizeHetero(sims []*sim, _ options) (map[string]float64, []check) {
	single := map[string]float64{} // app/device set -> single-node GFLOPS
	het := map[string]*sim{}
	var virtual float64
	var fallbacks []string
	for _, s := range sims {
		virtual += s.elapsed.Seconds()
		if key, ok := strings.CutPrefix(s.variant, "single:"); ok {
			single[s.app+"/"+key] = s.gflops
		}
		if s.variant == "het" {
			het[s.app] = s
		}
		if s.fallbacks > 0 {
			fallbacks = append(fallbacks, fmt.Sprintf("%s: %d", s.label, s.fallbacks))
		}
	}
	configs := bench.Table3Configs()
	var appNames []string
	for app := range het {
		appNames = append(appNames, app)
	}
	sort.Strings(appNames)
	var eff, perr float64
	for _, app := range appNames {
		var attainable float64
		for _, n := range configs[app].Nodes {
			attainable += single[app+"/"+strings.Join(n.Devices, "+")]
		}
		eff += het[app].gflops / attainable
		perr += math.Abs(math.Log2(het[app].gflops / paperTable3[app]))
	}
	n := float64(len(appNames))
	return map[string]float64{
			"virtual_s":   virtual,
			"efficiency":  eff / n,
			"paper_err":   perr / n,
			"failed_frac": failedFrac(sims),
		}, []check{{
			Name: "core.cpu_fallbacks == 0", OK: len(fallbacks) == 0, Detail: strings.Join(fallbacks, ", "),
		}}
}

// Serving sweep: offered load as a multiple of the modeled capacity of four
// GTX480 nodes.
var (
	serveLoads   = []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.3}
	serveNodes   = 4
	serveHorizon = 10 * time.Second
)

func prepareServe(o options, c *clock) ([]*sim, error) {
	horizon, loads := serveHorizon, serveLoads
	if o.quick {
		horizon, loads = time.Second, []float64{0.8, 1.3}
	}
	var capacity float64
	if err := c.Setup("serve.Workload.CapacityRPS", func() error {
		base, err := serve.StandardWorkload(1)
		if err == nil {
			capacity, err = base.CapacityRPS("gtx480", serveNodes)
		}
		return err
	}); err != nil {
		return nil, err
	}
	var sims []*sim
	for _, load := range loads {
		var w *serve.Workload
		if err := c.KernelSet("serve.StandardWorkload", func() (err error) {
			w, err = serve.StandardWorkload(1)
			return err
		}); err != nil {
			return nil, err
		}
		if err := c.Setup("serve.Workload.EstimateCosts", func() error { return w.EstimateCosts("gtx480") }); err != nil {
			return nil, err
		}
		w.ScaleRates(load * capacity)
		cfg := core.DefaultConfig(serveNodes, "gtx480")
		cfg.Seed = o.seed
		cfg.Partitions = o.parts(serveNodes)
		cl, err := newCluster(c, cfg, w.KernelSets...)
		if err != nil {
			return nil, err
		}
		scfg := serve.DefaultConfig(w)
		scfg.Horizon, scfg.SLO = horizon, serveSLO
		sims = append(sims, &sim{
			label: fmt.Sprintf("serve/load%.1f", load), call: "serve.Run",
			nodes: serveNodes, cl: cl, load: load,
			run: func(s *sim) error {
				rep, err := serve.Run(s.cl, scfg)
				if err == nil {
					s.report, s.elapsed = rep, rep.Elapsed
				}
				return err
			},
		})
	}
	return sims, nil
}

// serveSLO is the latency limit requests are served within (that of
// serve.DefaultConfig).
const serveSLO = 50 * time.Millisecond

func summarizeServe(sims []*sim, _ options) (map[string]float64, []check) {
	m := map[string]float64{}
	var virtual float64
	var offered, lost int64
	var checks []check
	for _, s := range sims {
		r := s.report
		virtual += s.elapsed.Seconds()
		offered += r.Offered
		lost += r.ShedThrottle + r.ShedQueue + r.Errors
		switch s.load {
		case 0.8:
			m["p50_ms"] = float64(r.P50) / 1e6
			m["p99_ms"] = float64(r.P99) / 1e6
		case 1.3:
			m["goodput_rps"] = r.GoodputRPS
		}
		if time.Duration(r.P99) <= serveSLO {
			m["max_load_in_slo"] = max(m["max_load_in_slo"], s.load)
		}
		checks = append(checks,
			check{Name: s.label + ": offered == admitted + shed", OK: r.Offered == r.Admitted+r.ShedThrottle+r.ShedQueue,
				Detail: fmt.Sprintf("offered %d, admitted %d, shed %d+%d", r.Offered, r.Admitted, r.ShedThrottle, r.ShedQueue)},
			check{Name: s.label + ": completed == admitted", OK: r.Completed == r.Admitted,
				Detail: fmt.Sprintf("completed %d, admitted %d", r.Completed, r.Admitted)},
			check{Name: s.label + ": errors == 0", OK: r.Errors == 0, Detail: fmt.Sprintf("errors %d", r.Errors)})
	}
	m["virtual_s"] = virtual
	m["failed_frac"] = ratio(float64(lost), float64(offered))
	return m, checks
}

// The dataflow pipeline of examples/graph (a main package, so its sources
// are repeated here): assign each point to its nearest centroid, score it
// against that centroid, filter the scores.
const (
	assignSrc = `
perfect void assign(int n, int k, int d,
    float[n,d] points, float[k,d] centroids, int[n] asn) {
  foreach (int i in n threads) {
    int best = 0;
    float bestDist = 1e30;
    for (int c = 0; c < k; c++) {
      float dist = 0.0;
      for (int f = 0; f < d; f++) {
        float diff = points[i,f] - centroids[c,f];
        dist += diff * diff;
      }
      if (dist < bestDist) {
        bestDist = dist;
        best = c;
      }
    }
    asn[i] = best;
  }
}
`
	scoreSrc = `
perfect void score(int n, int k, int d,
    float[n,d] points, float[k,d] centroids, int[n] asn, float[n] dist) {
  foreach (int i in n threads) {
    int c = asn[i];
    float acc = 0.0;
    for (int f = 0; f < d; f++) {
      float diff = points[i,f] - centroids[c,f];
      acc += diff * diff;
    }
    dist[i] = acc;
  }
}
`
	filterSrc = `
perfect void filter(int n, float[n] dist, int[n] mask) {
  foreach (int i in n threads) {
    mask[i] = 0;
    if (dist[i] < 1.0) {
      mask[i] = 1;
    }
  }
}
`
)

// dataflowMode is one way of moving the pipeline's data.
type dataflowMode struct {
	name      string
	graph     bool
	transport core.Transport
}

var dataflowModes = []dataflowMode{
	{"graph_explicit", true, core.TransportExplicit},
	{"graph_svm", true, core.TransportSVM},
	{"naive_explicit", false, core.TransportExplicit},
	{"naive_svm", false, core.TransportSVM},
}

const (
	dataflowPoints   = 1 << 20
	dataflowClusters = 64
	dataflowDims     = 4
	dataflowNodes    = 4
	dataflowIters    = 100
)

// pipeline declares the three-stage graph over n points; args, when
// non-nil, are the real arrays of a verification run (points, centroids,
// asn, dist, mask).
func pipeline(n int, args []any) *core.GraphSpec {
	gs := core.NewGraphSpec("kmeans-pipe")
	points := gs.Input("points", int64(4*n*dataflowDims))
	cents := gs.Input("centroids", 4*dataflowClusters*dataflowDims)
	asn := gs.Intermediate("asn", int64(4*n))
	dist := gs.Intermediate("dist", int64(4*n))
	mask := gs.Output("mask", int64(4*n))
	params := map[string]int64{"n": int64(n), "k": dataflowClusters, "d": dataflowDims}
	var a [3][]any
	if args != nil {
		scalars := []any{int64(n), int64(dataflowClusters), int64(dataflowDims)}
		a[0] = append(append([]any{}, scalars...), args[0], args[1], args[2])
		a[1] = append(append([]any{}, scalars...), args[0], args[1], args[2], args[3])
		a[2] = []any{int64(n), args[3], args[4]}
	}
	gs.Stage(core.StageSpec{
		Kernel: "assign", Params: params, SplitParam: "n", Args: a[0],
		Reads: []*core.GraphBuffer{points}, Broadcast: []*core.GraphBuffer{cents},
		Writes: []*core.GraphBuffer{asn},
	})
	gs.Stage(core.StageSpec{
		Kernel: "score", Params: params, SplitParam: "n", Args: a[1],
		Reads: []*core.GraphBuffer{points, asn}, Broadcast: []*core.GraphBuffer{cents},
		Writes: []*core.GraphBuffer{dist},
	})
	gs.Stage(core.StageSpec{
		Kernel: "filter", Params: params, SplitParam: "n", Args: a[2],
		Reads:  []*core.GraphBuffer{dist},
		Writes: []*core.GraphBuffer{mask},
	})
	return gs
}

func dataflowKernels(c *clock) ([]*codegen.KernelSet, error) {
	var kss []*codegen.KernelSet
	for _, k := range []struct{ name, src string }{{"assign", assignSrc}, {"score", scoreSrc}, {"filter", filterSrc}} {
		if err := c.KernelSet("codegen.NewKernelSet", func() error {
			ks, err := codegen.NewKernelSet(k.name, k.src)
			kss = append(kss, ks)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return kss, nil
}

// dataflowCluster builds a cluster of K20 + Xeon Phi nodes for one mode.
func dataflowCluster(c *clock, o options, mode dataflowMode, verify bool, kss []*codegen.KernelSet) (*core.Cluster, error) {
	cfg := core.DefaultConfig(dataflowNodes, "k20")
	for i := range cfg.Nodes {
		cfg.Nodes[i] = core.NodeSpec{Devices: []string{"k20", "xeon_phi"}}
	}
	cfg.Seed = o.seed
	cfg.Partitions = o.parts(dataflowNodes)
	cfg.Transport = mode.transport
	cfg.SVM.Protocol = svm.WriteInvalidate
	cfg.Verify = verify
	return newCluster(c, cfg, kss...)
}

// runPipeline submits the pipeline iters times from one client leaf per
// node, closed loop: each client submits its next run as soon as the
// previous one has completed.
func runPipeline(cl *core.Cluster, gs *core.GraphSpec, graph bool, iters int) (simnet.Time, error) {
	v, end, err := cl.Run(func(ctx *satin.Context) any {
		ctx.EnableManyCore()
		var leaves []*satin.Promise
		for j := 0; j < dataflowNodes; j++ {
			leaves = append(leaves, ctx.Spawn(satin.JobDesc{Name: "pipe", InputBytes: 64, ResultBytes: 64},
				func(c *satin.Context) any {
					for it := 0; it < iters; it++ {
						var err error
						if graph {
							err = core.RunGraph(c, gs)
						} else {
							err = gs.RunNaive(c)
						}
						if err != nil {
							return err
						}
					}
					return nil
				}))
		}
		ctx.Sync()
		for _, p := range leaves {
			if err, ok := p.Value().(error); ok {
				return err
			}
		}
		return nil
	})
	if err == nil {
		if e, ok := v.(error); ok {
			err = e
		}
	}
	return end, err
}

func prepareDataflow(o options, c *clock) ([]*sim, error) {
	iters := dataflowIters
	if o.quick {
		iters = 5
	}
	kss, err := dataflowKernels(c)
	if err != nil {
		return nil, err
	}
	var sims []*sim
	for _, mode := range dataflowModes {
		cl, err := dataflowCluster(c, o, mode, false, kss)
		if err != nil {
			return nil, err
		}
		var gs *core.GraphSpec
		if err := c.Setup("core.NewGraphSpec", func() error {
			gs = pipeline(dataflowPoints, nil)
			return gs.Validate()
		}); err != nil {
			return nil, err
		}
		sims = append(sims, &sim{
			label: "dataflow/" + mode.name, call: "core.Cluster.Run",
			nodes: dataflowNodes, cl: cl, variant: mode.name,
			run: func(s *sim) error {
				end, err := runPipeline(s.cl, gs, mode.graph, iters)
				s.elapsed = end
				return err
			},
		})
	}
	return sims, nil
}

func summarizeDataflow(sims []*sim, _ options) (map[string]float64, []check) {
	m := map[string]float64{}
	bytes := map[string]int64{}
	elapsed := map[string]float64{}
	var virtual float64
	for _, s := range sims {
		virtual += s.elapsed.Seconds()
		elapsed[s.variant] = float64(s.elapsed)
		m["dataflow."+s.variant+".virtual_ms"] = float64(s.elapsed) / 1e6
		bytes[s.variant] = s.bytes
	}
	for _, mode := range dataflowModes {
		if mode.name != "naive_explicit" {
			m["dataflow."+mode.name+".gain"] = ratio(elapsed["naive_explicit"], elapsed[mode.name])
		}
	}
	m["virtual_s"] = virtual
	m["failed_frac"] = failedFrac(sims)
	return m, []check{{
		Name:   "graph moves fewer PCIe bytes than naive (explicit copies)",
		OK:     bytes["graph_explicit"] < bytes["naive_explicit"],
		Detail: fmt.Sprintf("graph %d B, naive %d B", bytes["graph_explicit"], bytes["naive_explicit"]),
	}}
}
