package main

import (
	"fmt"
	"math"
	"math/rand"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/mcl/interp"
)

// verifyApps executes each application for real (Verify mode) at
// verification scale on the given nodes, with inputs drawn from the seed,
// and compares the outputs against the Go references: matmul and n-body
// within 1e-9, k-means and the raytracer exactly. A Cashmere variant must
// also run every leaf on a device.
func verifyApps(appNames []string, variants []apps.Variant, nodes []core.NodeSpec, seed int64) []check {
	var checks []check
	for _, app := range appNames {
		for _, v := range variants {
			name := fmt.Sprintf("verify %s/%s on %s", app, shortVariant(v), describeNodes(nodes))
			err := verifyApp(app, v, nodes, seed)
			c := check{Name: name, OK: err == nil}
			if err != nil {
				c.Detail = err.Error()
			}
			checks = append(checks, c)
		}
	}
	return checks
}

func verifyApp(app string, v apps.Variant, nodes []core.NodeSpec, seed int64) error {
	cfg := core.DefaultConfig(len(nodes), "gtx480")
	cfg.Nodes = nodes
	cfg.Seed = seed
	cfg.Verify = true
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	ks, err := appDefs[app].kernels(v)
	if err != nil {
		return err
	}
	if err := cl.Register(ks); err != nil {
		return err
	}
	switch app {
	case "matmul":
		prob := apps.MatmulProblem{N: 64, LeafTile: 16, NodeLeaves: 4}
		d := apps.AttachMatmulData(cl, prob.N, seed)
		if _, err := apps.RunMatmul(cl, prob, v); err != nil {
			return err
		}
		apps.FlushMatmul(cl)
		if e := apps.MatmulMaxError(d); e > 1e-9 {
			return fmt.Errorf("max error %g > 1e-9", e)
		}
	case "kmeans":
		prob := apps.KMeansProblem{N: 1024, K: 256, D: 4, Iters: 1, LeafPoints: 512, NodeLeaves: 2}
		d := apps.AttachKMeansData(cl, prob, seed)
		if _, err := apps.RunKMeans(cl, prob, v); err != nil {
			return err
		}
		apps.FlushKMeans(cl)
		for i, want := range apps.KMeansReferenceAssign(d) {
			if d.Assign.I[i] != want {
				return fmt.Errorf("assignment %d = %d, want %d", i, d.Assign.I[i], want)
			}
		}
	case "nbody":
		prob := apps.NBodyProblem{N: 512, Iters: 1, LeafBodies: 256, NodeLeaves: 2}
		d := apps.AttachNBodyData(cl, prob, seed)
		if _, err := apps.RunNBody(cl, prob, v); err != nil {
			return err
		}
		apps.FlushNBody(cl)
		for i, want := range apps.NBodyReferenceAcc(d).F {
			if e := math.Abs(want - d.Acc.F[i]); e > 1e-9 {
				return fmt.Errorf("acc[%d] = %g, want %g", i, d.Acc.F[i], want)
			}
		}
	case "raytracer":
		prob := apps.RaytracerProblem{W: 16, H: 8, Samples: 4, Depth: 5, LeafRows: 4, NodeLeaves: 2, Seed: seed}
		d := apps.AttachRaytracerData(cl, prob)
		if _, err := apps.RunRaytracer(cl, prob, v); err != nil {
			return err
		}
		apps.FlushRaytracer(cl)
		ref := apps.RaytraceReference(prob.W, prob.H, 0, prob.H, prob.Samples, prob.Seed, apps.CornellScene())
		lit := false
		for i, want := range ref.F {
			if d.Img.F[i] != want {
				return fmt.Errorf("pixel component %d = %g, want %g", i, d.Img.F[i], want)
			}
			lit = lit || want != 0
		}
		if !lit {
			return fmt.Errorf("rendered image is all black")
		}
	default:
		return fmt.Errorf("no verification for %q", app)
	}
	if f := cl.CPUFallbacks(); f != 0 {
		return fmt.Errorf("%d leaves fell back to the CPU", f)
	}
	return nil
}

// verifyDataflow runs the pipeline for real in all four modes at
// verification scale: the outputs must be byte-identical across modes and
// equal to a Go reference, and graph mode must move fewer PCIe bytes than
// naive launches under each transport.
func verifyDataflow(o options) []check {
	const n = 512
	rng := rand.New(rand.NewSource(o.seed))
	points := interp.NewFloatArray(n, dataflowDims)
	for i := range points.F {
		points.F[i] = 2 * rng.Float64()
	}
	cents := interp.NewFloatArray(dataflowClusters, dataflowDims)
	for c := 0; c < dataflowClusters; c++ {
		src := rng.Intn(n)
		copy(cents.F[c*dataflowDims:(c+1)*dataflowDims], points.F[src*dataflowDims:(src+1)*dataflowDims])
	}
	wantAsn, wantDist, wantMask := dataflowReference(points, cents, n)

	var checks []check
	bytes := map[string]int64{}
	for _, mode := range dataflowModes {
		asn, dist, mask := interp.NewIntArray(n), interp.NewFloatArray(n), interp.NewIntArray(n)
		kss, err := dataflowKernels(&clock{})
		var cl *core.Cluster
		if err == nil {
			cl, err = dataflowCluster(&clock{}, o, mode, true, kss)
		}
		if err == nil {
			_, err = runPipeline(cl, pipeline(n, []any{points, cents, asn, dist, mask}), mode.graph, 2)
		}
		if err == nil {
			err = sameOutputs(asn, dist, mask, wantAsn, wantDist, wantMask)
		}
		if err == nil && cl.CPUFallbacks() != 0 {
			err = fmt.Errorf("%d launches fell back to the CPU", cl.CPUFallbacks())
		}
		c := check{Name: "verify dataflow/" + mode.name + " against the Go reference", OK: err == nil}
		if err != nil {
			c.Detail = err.Error()
		} else {
			bytes[mode.name] = cl.CollectMetrics().Int("mcl.bytes_moved")
		}
		checks = append(checks, c)
	}
	for _, t := range []string{"explicit", "svm"} {
		g, nv := bytes["graph_"+t], bytes["naive_"+t]
		checks = append(checks, check{
			Name:   "verify dataflow: graph moves fewer bytes than naive under " + t,
			OK:     g < nv,
			Detail: fmt.Sprintf("graph %d B, naive %d B", g, nv),
		})
	}
	return checks
}

// dataflowReference computes the pipeline's outputs in plain Go with the
// kernels' arithmetic: nearest centroid (first on ties), squared distance
// to it, and whether that distance is below 1.
func dataflowReference(points, cents *interp.Array, n int) (asn []int64, dist []float64, mask []int64) {
	asn, dist, mask = make([]int64, n), make([]float64, n), make([]int64, n)
	d := dataflowDims
	for i := 0; i < n; i++ {
		best, bestDist := 0, 1e30
		for c := 0; c < dataflowClusters; c++ {
			var s float64
			for f := 0; f < d; f++ {
				diff := points.F[i*d+f] - cents.F[c*d+f]
				s += diff * diff
			}
			if s < bestDist {
				best, bestDist = c, s
			}
		}
		asn[i] = int64(best)
		var acc float64
		for f := 0; f < d; f++ {
			diff := points.F[i*d+f] - cents.F[best*d+f]
			acc += diff * diff
		}
		dist[i] = acc
		if acc < 1.0 {
			mask[i] = 1
		}
	}
	return asn, dist, mask
}

func sameOutputs(asn, dist, mask *interp.Array, wantAsn []int64, wantDist []float64, wantMask []int64) error {
	for i := range wantAsn {
		switch {
		case asn.I[i] != wantAsn[i]:
			return fmt.Errorf("asn[%d] = %d, want %d", i, asn.I[i], wantAsn[i])
		case math.Float64bits(dist.F[i]) != math.Float64bits(wantDist[i]):
			return fmt.Errorf("dist[%d] = %g, want %g", i, dist.F[i], wantDist[i])
		case mask.I[i] != wantMask[i]:
			return fmt.Errorf("mask[%d] = %d, want %d", i, mask.I[i], wantMask[i])
		}
	}
	return nil
}
