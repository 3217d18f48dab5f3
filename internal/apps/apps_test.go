package apps

import (
	"math"
	"runtime"
	"testing"
	"time"

	"cashmere/internal/core"
	"cashmere/internal/mcl/codegen"
)

// verifyCluster builds a small Verify-mode cluster of n gtx480 nodes with
// the app's kernels registered.
func verifyCluster(t *testing.T, n int, v Variant, kernels func(Variant) (*codegen.KernelSet, error)) *core.Cluster {
	t.Helper()
	cfg := core.DefaultConfig(n, "gtx480")
	cfg.Verify = true
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := kernels(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		t.Fatal(err)
	}
	return cl
}

// checkFlushReleases runs flush, the end of cl's verification run, and
// fails unless the run recorded leaf views before it and no package map
// holds cl, with its kernels and nodes, after it.
func checkFlushReleases(t *testing.T, cl *core.Cluster, views int, flush func(*core.Cluster)) {
	t.Helper()
	if views == 0 {
		t.Fatal("the verification run recorded no leaf views")
	}
	flush(cl)
	if verifyData[cl] != nil || kmeansVerify[cl] != nil || nbodyVerifyData[cl] != nil || rtVerifyData[cl] != nil {
		t.Fatal("a package map still holds the cluster after its Flush")
	}
}

func TestMatmulVerifyUnoptimized(t *testing.T) {
	testMatmulVerify(t, CashmereUnoptimized)
}

func TestMatmulVerifyOptimizedTiled(t *testing.T) {
	testMatmulVerify(t, CashmereOptimized)
}

func testMatmulVerify(t *testing.T, v Variant) {
	cl := verifyCluster(t, 2, v, MatmulKernels)
	prob := MatmulProblem{N: 64, LeafTile: 16, NodeLeaves: 4}
	d := AttachMatmulData(cl, prob.N, 11)
	res, err := RunMatmul(cl, prob, v)
	if err != nil {
		t.Fatal(err)
	}
	checkFlushReleases(t, cl, len(d.views), FlushMatmul)
	if e := MatmulMaxError(d); e > 1e-9 {
		t.Fatalf("matmul max error = %g", e)
	}
	if res.GFLOPS <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestKMeansVerifyUnoptimized(t *testing.T) { testKMeansVerify(t, CashmereUnoptimized) }
func TestKMeansVerifyOptimized(t *testing.T)   { testKMeansVerify(t, CashmereOptimized) }

func testKMeansVerify(t *testing.T, v Variant) {
	cl := verifyCluster(t, 2, v, KMeansKernels)
	prob := KMeansProblem{N: 1024, K: 256, D: 4, Iters: 1, LeafPoints: 512, NodeLeaves: 2}
	d := AttachKMeansData(cl, prob, 5)
	if _, err := RunKMeans(cl, prob, v); err != nil {
		t.Fatal(err)
	}
	checkFlushReleases(t, cl, len(d.views), FlushKMeans)
	ref := KMeansReferenceAssign(d)
	for i := range ref {
		if d.Assign.I[i] != ref[i] {
			t.Fatalf("assignment %d = %d, want %d", i, d.Assign.I[i], ref[i])
		}
	}
}

func TestNBodyVerifyUnoptimized(t *testing.T) { testNBodyVerify(t, CashmereUnoptimized) }
func TestNBodyVerifyOptimized(t *testing.T)   { testNBodyVerify(t, CashmereOptimized) }

func testNBodyVerify(t *testing.T, v Variant) {
	cl := verifyCluster(t, 2, v, NBodyKernels)
	prob := NBodyProblem{N: 512, Iters: 1, LeafBodies: 256, NodeLeaves: 2}
	d := AttachNBodyData(cl, prob, 7)
	if _, err := RunNBody(cl, prob, v); err != nil {
		t.Fatal(err)
	}
	checkFlushReleases(t, cl, len(d.views), FlushNBody)
	ref := NBodyReferenceAcc(d)
	for i := range ref.F {
		if math.Abs(ref.F[i]-d.Acc.F[i]) > 1e-9 {
			t.Fatalf("acc[%d] = %g, want %g", i, d.Acc.F[i], ref.F[i])
		}
	}
}

func TestRaytracerVerifyExactMatch(t *testing.T) {
	cl := verifyCluster(t, 1, CashmereUnoptimized, RaytracerKernels)
	prob := RaytracerProblem{W: 16, H: 8, Samples: 4, Depth: 5, LeafRows: 4, NodeLeaves: 2, Seed: 3}
	d := AttachRaytracerData(cl, prob)
	if _, err := RunRaytracer(cl, prob, CashmereUnoptimized); err != nil {
		t.Fatal(err)
	}
	checkFlushReleases(t, cl, len(d.views), FlushRaytracer)
	ref := RaytraceReference(prob.W, prob.H, 0, prob.H, prob.Samples, prob.Seed, CornellScene())
	nonzero := false
	for i := range ref.F {
		if d.Img.F[i] != ref.F[i] {
			t.Fatalf("pixel component %d = %g, want %g (MCPL and Go references must agree exactly)",
				i, d.Img.F[i], ref.F[i])
		}
		if ref.F[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("rendered image is all black")
	}
}

func TestSatinVariantUsesCPUOnly(t *testing.T) {
	cfg := core.DefaultConfig(2, "gtx480")
	cfg.Satin.WorkersPerNode = 8
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prob := MatmulProblem{N: 256, LeafTile: 64, NodeLeaves: 4}
	res, err := RunMatmul(cl, prob, Satin)
	if err != nil {
		t.Fatal(err)
	}
	if cl.FlopsCharged() != 0 {
		t.Fatalf("Satin variant launched kernels (%g flops)", cl.FlopsCharged())
	}
	if res.GFLOPS <= 0 || res.GFLOPS > 200 {
		t.Fatalf("Satin matmul = %.1f GFLOPS; expected CPU-level performance", res.GFLOPS)
	}
}

func TestCashmereFasterThanSatin(t *testing.T) {
	// The headline claim: Cashmere is an order of magnitude faster than
	// Satin on the same node count.
	prob := MatmulProblem{N: 4096, LeafTile: 1024, NodeLeaves: 8}
	run := func(v Variant) Result {
		cfg := core.DefaultConfig(2, "gtx480")
		if v == Satin {
			cfg.Satin.WorkersPerNode = 8
		}
		cl, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ks, _ := MatmulKernels(v)
		cl.Register(ks)
		res, err := RunMatmul(cl, prob, v)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	satinRes := run(Satin)
	cashRes := run(CashmereOptimized)
	if cashRes.GFLOPS < 4*satinRes.GFLOPS {
		t.Fatalf("cashmere %.1f GFLOPS vs satin %.1f: want >=4x", cashRes.GFLOPS, satinRes.GFLOPS)
	}
}

func TestVariantString(t *testing.T) {
	if Satin.String() != "satin" || CashmereOptimized.String() != "cashmere-optimized" {
		t.Fatal("Variant.String wrong")
	}
}

func TestProblemValidation(t *testing.T) {
	cl := verifyCluster(t, 1, CashmereUnoptimized, MatmulKernels)
	if _, err := RunMatmul(cl, MatmulProblem{N: 100, LeafTile: 30}, CashmereUnoptimized); err == nil {
		t.Fatal("invalid matmul sizes accepted")
	}
}

// TestFinishedRunReleasesGoroutines: once Cluster.Run returns, no simulated
// process is left blocked on a goroutine — comm loops, idle workers and
// pooled couriers all exit — at one partition and at two.
func TestFinishedRunReleasesGoroutines(t *testing.T) {
	for _, parts := range []int{1, 2} {
		before := runtime.NumGoroutine()
		cfg := core.DefaultConfig(4, "gtx480")
		cfg.Partitions = parts
		cl, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := MatmulKernels(CashmereOptimized)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(ks); err != nil {
			t.Fatal(err)
		}
		if _, err := RunMatmul(cl, MatmulProblem{N: 4096, LeafTile: 1024, NodeLeaves: 4}, CashmereOptimized); err != nil {
			t.Fatal(err)
		}
		// A released goroutine may still be unwinding when Run returns;
		// give the scheduler a moment before counting.
		after := runtime.NumGoroutine()
		for i := 0; i < 100 && after > before+2; i++ {
			time.Sleep(time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before+2 {
			t.Errorf("%d partitions: %d goroutines after the run, %d before", parts, after, before)
		}
	}
}

// TestKMeansStealsUnderRun: a divide-and-conquer app runs through
// Cluster.Run, whose idle workers must still balance its node-level jobs by
// stealing. Serving and graph runs drop those workers (RunServices); this
// pins that the paper apps keep them.
func TestKMeansStealsUnderRun(t *testing.T) {
	cl, err := core.NewCluster(core.DefaultConfig(4, "gtx480"))
	if err != nil {
		t.Fatal(err)
	}
	ks, err := KMeansKernels(CashmereOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		t.Fatal(err)
	}
	prob := KMeansProblem{N: 1 << 16, K: 256, D: 4, Iters: 2, LeafPoints: 1 << 12, NodeLeaves: 4}
	if _, err := RunKMeans(cl, prob, CashmereOptimized); err != nil {
		t.Fatal(err)
	}
	if cl.Runtime().StealsOK() == 0 {
		t.Fatal("k-means on 4 nodes completed without a single steal")
	}
}
