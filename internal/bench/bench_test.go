package bench

import (
	"strings"
	"testing"

	"cashmere/internal/apps"
)

// DeviceCount reports the number of many-core devices.
func (h HeteroConfig) DeviceCount() int {
	n := 0
	for _, nd := range h.Nodes {
		n += len(nd.Devices)
	}
	return n
}

func TestFigureFormatAndRow(t *testing.T) {
	fig := Figure{
		ID: "figX", Title: "test", XLabel: "nodes",
		Series: []Series{
			{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Label: "b", X: []float64{1, 2}, Y: []float64{1}},
		},
	}
	out := fig.Format()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "a") {
		t.Fatalf("format:\n%s", out)
	}
	if v, ok := fig.Row("a", 2); !ok || v != 20 {
		t.Fatalf("Row = %v %v", v, ok)
	}
	if _, ok := fig.Row("a", 3); ok {
		t.Fatal("missing x found")
	}
	if _, ok := fig.Row("c", 1); ok {
		t.Fatal("missing series found")
	}
	if !strings.Contains(Figure{ID: "e"}.Format(), "no data") {
		t.Fatal("empty figure format")
	}
}

func TestTable2Content(t *testing.T) {
	tab := Table2()
	for _, w := range []string{"raytracer", "matmul", "k-means", "n-body", "irregular", "iterative"} {
		if !strings.Contains(tab, w) {
			t.Fatalf("Table2 missing %q", w)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	fig, err := Fig6KernelPerformance()
	if err != nil {
		t.Fatal(err)
	}
	// 4 apps x 2 variants.
	if len(fig.Series) != 8 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	get := func(label string, dev float64) float64 {
		v, ok := fig.Row(label, dev)
		if !ok {
			t.Fatalf("missing %s[%v]", label, dev)
		}
		return v
	}
	// Device order: c2050=0 gtx480=1 gtx680=2 hd7970=3 k20=4 titan=5 xeon_phi=6.
	const gtx480, k20, phi = 1, 4, 6

	// Optimizing has a drastic effect for matmul and k-means...
	if get("matmul/opt", gtx480) < 3*get("matmul/unopt", gtx480) {
		t.Error("matmul optimization gain too small")
	}
	if get("kmeans/opt", gtx480) < 3*get("kmeans/unopt", gtx480) {
		t.Error("kmeans optimization gain too small")
	}
	// ...but not for the raytracer (divergence-bound, Sec. V-A).
	ru, ro := get("raytracer/unopt", gtx480), get("raytracer/opt", gtx480)
	if ro > ru*1.3 || ru > ro*1.3 {
		t.Errorf("raytracer opt %v vs unopt %v should overlap", ro, ru)
	}
	// The Xeon Phi trails the GPUs on every kernel.
	for _, app := range []string{"raytracer", "matmul", "kmeans", "nbody"} {
		if get(app+"/opt", phi) >= get(app+"/opt", k20) {
			t.Errorf("%s: phi should be slower than k20", app)
		}
	}
	// With per-device optimized kernels, the Phi is ~4x slower than the K20
	// on k-means (Sec. V-C), not orders of magnitude.
	ratio := get("kmeans/opt", k20) / get("kmeans/opt", phi)
	if ratio < 2 || ratio > 8 {
		t.Errorf("k20/phi kmeans ratio = %.1f, want ~4", ratio)
	}
}

func TestRunVariantSmall(t *testing.T) {
	// A 2-node optimized run of every app completes and reports performance.
	for _, app := range AppNames {
		res, err := runVariant(app, 2, apps.CashmereOptimized, 1)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if res.GFLOPS <= 0 {
			t.Fatalf("%s: GFLOPS = %v", app, res.GFLOPS)
		}
	}
}

func TestAblationFig16Split(t *testing.T) {
	phi, k20, err := AblationFig16Split()
	if err != nil {
		t.Fatal(err)
	}
	if phi != 1 || k20 != 7 {
		t.Fatalf("split = %d/%d, want 1 on phi, 7 on k20 (Fig. 16)", phi, k20)
	}
}

func TestAblationStealPolicy(t *testing.T) {
	oldest, err := AblationStealPolicy(true)
	if err != nil {
		t.Fatal(err)
	}
	newest, err := AblationStealPolicy(false)
	if err != nil {
		t.Fatal(err)
	}
	// Steal-oldest moves the largest subtrees; it must not lose to
	// steal-newest by a meaningful margin.
	if oldest < newest*0.9 {
		t.Fatalf("steal-oldest %.0f GFLOPS vs steal-newest %.0f", oldest, newest)
	}
}

func TestVerifiedMatmul(t *testing.T) {
	if err := VerifiedMatmul(); err != nil {
		t.Fatal(err)
	}
}

func TestHeteroConfigDescribe(t *testing.T) {
	cfgs := Table3Configs()
	km := cfgs["kmeans"]
	desc := km.Describe()
	for _, w := range []string{"10 gtx480", "2 c2050", "7 k20", "1 xeon_phi"} {
		if !strings.Contains(desc, w) {
			t.Fatalf("describe %q missing %q", desc, w)
		}
	}
	if km.DeviceCount() != 23 {
		t.Fatalf("kmeans config has %d devices, want 23 (Table III)", km.DeviceCount())
	}
	if cfgs["nbody"].DeviceCount() != 24 {
		t.Fatalf("nbody config devices = %d, want 24", cfgs["nbody"].DeviceCount())
	}
	if cfgs["raytracer"].DeviceCount() != 15 {
		t.Fatalf("raytracer config devices = %d, want 15", cfgs["raytracer"].DeviceCount())
	}
}
