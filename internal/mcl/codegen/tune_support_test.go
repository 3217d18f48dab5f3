package codegen

import (
	"slices"
	"strings"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/hdl"
)

// These tests cover the compile-layer hooks the auto-tuner depends on:
// source fingerprinting, level-pinned compilation, launch-geometry overrides
// and the geometry-aware cost model.

func TestFingerprintStableAndSourceSensitive(t *testing.T) {
	ks1, err := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	ks2, err := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	if ks1.Fingerprint() != ks2.Fingerprint() {
		t.Fatal("identical sets disagree on fingerprint")
	}
	// Source order must not matter (levels are hashed in sorted order).
	ks3, err := NewKernelSet("matmul", matmulGPU, matmulPerfect)
	if err != nil {
		t.Fatal(err)
	}
	if ks1.Fingerprint() != ks3.Fingerprint() {
		t.Fatal("source order changed the fingerprint")
	}
	// Any source edit must change it.
	edited := strings.Replace(matmulPerfect, "sum += a[i,k]", "sum += 2.0 * a[i,k]", 1)
	ks4, err := NewKernelSet("matmul", edited, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	if ks1.Fingerprint() == ks4.Fingerprint() {
		t.Fatal("source edit kept the fingerprint")
	}
}

func TestCompileAtPinsLevel(t *testing.T) {
	h := hdl.Library()
	ks, err := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	// gtx480's most specific version is gpu, but CompileAt can pin perfect.
	c, err := ks.CompileAt("perfect", "gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	if c.SourceLevel != "perfect" {
		t.Fatalf("SourceLevel = %q", c.SourceLevel)
	}
	// A level with no version errors.
	if _, err := ks.CompileAt("mic", "xeon_phi", h); err == nil {
		t.Fatal("missing version accepted")
	}
	// A version that does not apply to the leaf errors: gpu is not an
	// ancestor of xeon_phi.
	if _, err := ks.CompileAt("gpu", "xeon_phi", h); err == nil {
		t.Fatal("inapplicable level accepted")
	}
}

func TestSetLaunchExtents(t *testing.T) {
	h := hdl.Library()
	ks, err := NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ks.CompileAt("perfect", "gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxWorkgroup() != 1024 {
		t.Fatalf("MaxWorkgroup = %d", c.MaxWorkgroup())
	}
	if c.FlatLaunchDims() != 2 {
		t.Fatalf("FlatLaunchDims = %d", c.FlatLaunchDims())
	}
	tuned, err := c.WithGeometry([]int64{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"n": 1000, "m": 500, "p": 64}
	g, err := tuned.LaunchConfig(params)
	if err != nil {
		t.Fatal(err)
	}
	if g.LocalSize[0] != 8 || g.LocalSize[1] != 32 {
		t.Fatalf("local = %v", g.LocalSize)
	}
	if g.GlobalSize[0] != 1000 || g.GlobalSize[1] != 512 {
		t.Fatalf("global = %v", g.GlobalSize)
	}
	if g.Bounds[0] != 1000 || g.Bounds[1] != 500 {
		t.Fatalf("bounds = %v", g.Bounds)
	}
	// The tuned copy leaves the shared compile as it was: default extents,
	// geometry-free cost.
	local := func(c *Compiled) []int64 {
		t.Helper()
		g, err := c.LaunchConfig(params)
		if err != nil {
			t.Fatal(err)
		}
		return g.LocalSize
	}
	cost := func(c *Compiled) device.KernelCost {
		t.Helper()
		kc, err := c.Cost(params)
		if err != nil {
			t.Fatal(err)
		}
		return kc
	}
	if got := local(c); !slices.Equal(got, []int64{16, 16}) {
		t.Fatalf("WithGeometry modified the shared compile: local %v", got)
	}
	// nil keeps the default extents but turns the geometry cost on.
	def, err := c.WithGeometry(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := local(def); !slices.Equal(got, []int64{16, 16}) {
		t.Fatalf("default geometry: local %v", got)
	}
	if cost(def) == cost(c) {
		t.Fatal("default geometry kept the geometry-free cost")
	}

	// Error cases: wrong rank, non-positive, over the work-group limit.
	if _, err := c.WithGeometry([]int64{64}); err == nil {
		t.Fatal("rank mismatch accepted")
	}
	if _, err := c.WithGeometry([]int64{0, 16}); err == nil {
		t.Fatal("zero extent accepted")
	}
	if _, err := c.WithGeometry([]int64{64, 64}); err == nil {
		t.Fatal("4096-thread work-group accepted on a 1024 limit")
	}

	// Explicit-geometry kernels (blocks x threads in the source) refuse
	// overrides entirely.
	cg, err := ks.CompileAt("gpu", "gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	if cg.FlatLaunchDims() != 0 {
		t.Fatalf("explicit nest FlatLaunchDims = %d", cg.FlatLaunchDims())
	}
	if _, err := cg.WithGeometry([]int64{16, 16}); err == nil {
		t.Fatal("extent override accepted on explicit geometry")
	}
}

func TestGeometryCostChangesModel(t *testing.T) {
	h := hdl.Library()
	ks, err := NewKernelSet("matmul", matmulPerfect)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"n": 1000, "m": 500, "p": 64}

	plain, err := ks.Compile("gtx480", h)
	if err != nil {
		t.Fatal(err)
	}
	base, err := plain.Cost(params)
	if err != nil {
		t.Fatal(err)
	}

	// Same compile with the geometry-aware model: the default 16x16 tiling
	// pads 1000x500 to 1008x512, so effective throughput drops and modeled
	// time grows.
	geo, err := plain.WithGeometry(nil)
	if err != nil {
		t.Fatal(err)
	}
	padded, err := geo.Cost(params)
	if err != nil {
		t.Fatal(err)
	}
	spec := device.Catalog()["gtx480"]
	if spec.KernelTime(padded) <= spec.KernelTime(base) {
		t.Fatalf("geometry-aware time %v not above plain %v",
			spec.KernelTime(padded), spec.KernelTime(base))
	}

	// An exact-fit geometry must model faster than a badly padded one.
	good, err := plain.WithGeometry([]int64{8, 4})
	if err != nil {
		t.Fatal(err)
	}
	fit, err := good.Cost(params)
	if err != nil {
		t.Fatal(err)
	}
	if spec.KernelTime(fit) >= spec.KernelTime(padded) {
		t.Fatalf("exact fit %v not below padded %v", spec.KernelTime(fit), spec.KernelTime(padded))
	}
}
