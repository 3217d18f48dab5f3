package bench

import (
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/core"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
)

// TestSVMCrossoverGates pins the crossover the experiment exists to show:
// shared virtual memory is at least 1.3x faster than explicit copies on the
// sparse iterative-reuse point, and explicit copies are at least 1.3x
// faster than write-invalidate SVM on the bulk-streaming point.
func TestSVMCrossoverGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	points, err := SVMCrossover()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SVMPoint{}
	for _, p := range points {
		byName[p.Workload] = p
	}
	sp, ok := byName["sparse-12"]
	if !ok {
		t.Fatal("sweep lost the sparse-12 point")
	}
	if sp.WISpeedup < 1.3 {
		t.Errorf("sparse point: SVM %.2fx vs explicit, want >= 1.3x\n%s",
			sp.WISpeedup, FormatSVMTable(points))
	}
	st, ok := byName["stream"]
	if !ok {
		t.Fatal("sweep lost the stream point")
	}
	if adv := 1 / st.WISpeedup; adv < 1.3 {
		t.Errorf("stream point: explicit %.2fx vs SVM, want >= 1.3x\n%s",
			adv, FormatSVMTable(points))
	}
	// Region-ownership must amortize streaming: no worse than 1% over
	// explicit on the stream point (one bulk handoff per iteration).
	if st.SVMRONs > st.ExplicitNs*101/100 {
		t.Errorf("region-ownership stream %dns should track explicit %dns", st.SVMRONs, st.ExplicitNs)
	}
	// And the fault counters must reflect demand paging, not bulk copies.
	if sp.WIFaults == 0 || sp.WIMigrated == 0 || sp.WIBytesMoved == 0 {
		t.Errorf("sparse WI counters empty: %+v", sp)
	}
}

// svmKMeansRun executes the verification-scale kmeans under the given
// transport and protocol and returns the assignments plus the virtual time.
func svmKMeansRun(t *testing.T, transport core.Transport, proto svm.Protocol, partitions int) ([]int64, simnet.Time) {
	t.Helper()
	cfg := core.DefaultConfig(2, "gtx480")
	cfg.Verify = true
	cfg.Transport = transport
	cfg.SVM.Protocol = proto
	cfg.Partitions = partitions
	cl, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := apps.KMeansKernels(apps.CashmereUnoptimized)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		t.Fatal(err)
	}
	prob := apps.KMeansProblem{N: 1024, K: 256, D: 4, Iters: 1, LeafPoints: 512, NodeLeaves: 2}
	d := apps.AttachKMeansData(cl, prob, 5)
	res, err := apps.RunKMeans(cl, prob, apps.CashmereUnoptimized)
	if err != nil {
		t.Fatal(err)
	}
	apps.FlushKMeans(cl)
	out := make([]int64, len(d.Assign.I))
	copy(out, d.Assign.I)
	return out, simnet.Time(res.Elapsed)
}

// TestKMeansIdenticalResultsAcrossTransports is the differential
// correctness gate: the same kmeans problem at verification scale produces
// identical assignment arrays under explicit copies, SVM write-invalidate
// and SVM region-ownership — while the modeled times differ, proving the
// transports bill different movement for the same computation.
func TestKMeansIdenticalResultsAcrossTransports(t *testing.T) {
	ref, tExp := svmKMeansRun(t, core.TransportExplicit, svm.WriteInvalidate, 1)
	wi, tWI := svmKMeansRun(t, core.TransportSVM, svm.WriteInvalidate, 1)
	ro, tRO := svmKMeansRun(t, core.TransportSVM, svm.RegionOwnership, 1)
	for i := range ref {
		if wi[i] != ref[i] {
			t.Fatalf("write-invalidate assign[%d] = %d, explicit = %d", i, wi[i], ref[i])
		}
		if ro[i] != ref[i] {
			t.Fatalf("region-ownership assign[%d] = %d, explicit = %d", i, ro[i], ref[i])
		}
	}
	if tExp == tWI {
		t.Errorf("explicit and SVM transports billed identical time %v: transport not exercised", tExp)
	}
	_ = tRO
}

// TestPartitionedSVMMetricsDump byte-compares the full metric dump of an
// SVM-transport kmeans run between the sequential kernel and 4 parallel
// partitions — the determinism contract extended to the fault counters
// (matched by the CI determinism job).
func TestPartitionedSVMMetricsDump(t *testing.T) {
	dump := func(partitions int) string {
		cfg := core.DefaultConfig(4, "gtx480")
		cfg.Transport = core.TransportSVM
		cfg.Partitions = partitions
		cl, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := apps.KMeansKernels(apps.CashmereUnoptimized)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(ks); err != nil {
			t.Fatal(err)
		}
		prob := apps.KMeansProblem{N: 1 << 16, K: 256, D: 4, Iters: 2, LeafPoints: 4096, NodeLeaves: 2}
		if _, err := apps.RunKMeans(cl, prob, apps.CashmereUnoptimized); err != nil {
			t.Fatal(err)
		}
		return cl.CollectMetrics().Format()
	}
	seq := dump(1)
	par := dump(4)
	if seq != par {
		t.Fatalf("metric dump differs between 1 and 4 partitions:\n--- sequential\n%s--- partitioned\n%s", seq, par)
	}
	if !testing.Verbose() {
		return
	}
	t.Log("\n" + seq)
}

// TestSVMBufferSharingAcrossLaunches drives a declared SVM buffer through
// the full runtime: repeated read launches on one node fault the buffer in
// once, then hit resident pages — the iterative-reuse advantage the
// crossover experiment quantifies, observed here via CollectMetrics.
func TestSVMBufferSharingAcrossLaunches(t *testing.T) {
	_, c, err := runSVMWorkload(svmWorkload{name: "t", touched: 4}, core.TransportSVM, svm.WriteInvalidate)
	if err != nil {
		t.Fatal(err)
	}
	// 6 iterations touch the same 4 pages: they fault in on the first
	// iteration and drain back on the final host sync — everything between
	// is a hit.
	if c.Faults != 8 {
		t.Fatalf("faults = %d, want 8 (4 in on iter 1 + 4 out at sync)", c.Faults)
	}
	// Hits: 5 re-touches of the 4 resident pages, plus the final host sync
	// walking the untouched (still host-valid) remainder of the buffer.
	wantHits := int64(4*(svmIters-1)) + svmBufferBytes/svm.DefaultPageSize - 4
	if c.Hits != wantHits {
		t.Fatalf("hits = %d, want %d (re-touches resident)", c.Hits, wantHits)
	}
	if c.PagesMigrated != 8 || c.Invalidations != 4 {
		t.Fatalf("counters = %+v", c)
	}
}
