package translate

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

const matmulSrc = `
perfect void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}
`

func level(t *testing.T, name string) *hdl.Level {
	t.Helper()
	lv, err := hdl.Library().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return lv
}

func TestTranslateMatmulToGPUPreservesSemantics(t *testing.T) {
	prog := mcpl.MustParse(matmulSrc)
	if _, err := mcpl.Check(prog); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"gpu", "gtx480", "k20", "hd7970", "xeon_phi"} {
		out, err := Translate(prog, "matmul", level(t, target))
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		k := out.Kernel("matmul")
		if k == nil || k.Level != target {
			t.Fatalf("%s: translated kernel = %+v", target, k)
		}
		// Run both versions on the same input; results must agree exactly
		// (translation reorders nothing within an output element).
		const n, m, p = 19, 23, 7 // deliberately not multiples of block sizes
		rng := rand.New(rand.NewSource(3))
		a := interp.NewFloatArray(n, p)
		b := interp.NewFloatArray(p, m)
		for i := range a.F {
			a.F[i] = rng.Float64()
		}
		for i := range b.F {
			b.F[i] = rng.Float64()
		}
		c1 := interp.NewFloatArray(n, m)
		c2 := interp.NewFloatArray(n, m)
		if err := interp.Run(prog, "matmul", int64(n), int64(m), int64(p), c1, a, b); err != nil {
			t.Fatal(err)
		}
		if err := interp.Run(out, "matmul", int64(n), int64(m), int64(p), c2, a, b); err != nil {
			t.Fatalf("%s: translated kernel failed: %v", target, err)
		}
		for i := range c1.F {
			if math.Abs(c1.F[i]-c2.F[i]) > 1e-12 {
				t.Fatalf("%s: semantics changed at %d: %v vs %v", target, i, c1.F[i], c2.F[i])
			}
		}
	}
}

func TestTranslateIntroducesBlockDecomposition(t *testing.T) {
	prog := mcpl.MustParse(matmulSrc)
	out, err := Translate(prog, "matmul", level(t, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	k := out.Kernel("matmul")
	outer, ok := k.Body.Stmts[0].(*mcpl.Foreach)
	if !ok || outer.Unit != "blocks" {
		t.Fatalf("outer = %+v", k.Body.Stmts[0])
	}
	inner, ok := outer.Body.Stmts[0].(*mcpl.Foreach)
	if !ok || inner.Unit != "threads" {
		t.Fatalf("inner = %+v", outer.Body.Stmts[0])
	}
	// 2D nest decomposes with 16x16 work-groups: the j loop, inside the
	// guard of the reconstructed i, is the nest's second dimension.
	if lit, ok := inner.Bound.(*mcpl.IntLit); !ok || lit.Value != 16 {
		t.Fatalf("inner bound = %s", mcpl.ExprString(inner.Bound))
	}
	guard := inner.Body.Stmts[1].(*mcpl.If)
	jOuter := guard.Then.Stmts[0].(*mcpl.Foreach)
	jInner := jOuter.Body.Stmts[0].(*mcpl.Foreach)
	if lit, ok := jInner.Bound.(*mcpl.IntLit); !ok || lit.Value != 16 {
		t.Fatalf("second dimension's inner bound = %s, want 16", mcpl.ExprString(jInner.Bound))
	}
}

func TestTranslateXeonPhiUsesCoresVectors(t *testing.T) {
	prog := mcpl.MustParse(matmulSrc)
	out, err := Translate(prog, "matmul", level(t, "xeon_phi"))
	if err != nil {
		t.Fatal(err)
	}
	k := out.Kernel("matmul")
	outer := k.Body.Stmts[0].(*mcpl.Foreach)
	if outer.Unit != "cores" {
		t.Fatalf("outer unit = %s, want cores", outer.Unit)
	}
}

func TestTranslateRespectsUnitMax(t *testing.T) {
	// mic's vectors max is 16, so a 1D kernel on xeon_phi gets a 16-wide
	// inner foreach.
	src := `
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = a[i] * 2.0; }
}`
	prog := mcpl.MustParse(src)
	out, err := Translate(prog, "scale", level(t, "xeon_phi"))
	if err != nil {
		t.Fatal(err)
	}
	k := out.Kernel("scale")
	outer := k.Body.Stmts[0].(*mcpl.Foreach)
	inner := outer.Body.Stmts[0].(*mcpl.Foreach)
	if lit, ok := inner.Bound.(*mcpl.IntLit); !ok || lit.Value != 16 {
		t.Fatalf("inner bound = %s, want 16 (vectors max)", mcpl.ExprString(inner.Bound))
	}
}

func TestTranslateHigherLevelKernelUnchangedUnits(t *testing.T) {
	// A kernel already written for gpu keeps blocks/threads when translated
	// to a leaf below gpu.
	src := `
gpu void k(int n, float[n] a) {
  foreach (int b in n / 256 blocks) {
    foreach (int t in 256 threads) {
      a[b * 256 + t] = 1.0;
    }
  }
}`
	prog := mcpl.MustParse(src)
	out, err := Translate(prog, "k", level(t, "gtx480"))
	if err != nil {
		t.Fatal(err)
	}
	k := out.Kernel("k")
	if k.Level != "gtx480" {
		t.Fatalf("level = %s", k.Level)
	}
	// gtx480 inherits gpu's `map threads blocks threads`, but the kernel's
	// threads are already gpu's: the nest survives untouched.
	outer := k.Body.Stmts[0].(*mcpl.Foreach)
	if outer.Unit != "blocks" || outer.Var != "b" {
		t.Fatalf("outer foreach rewritten to %s in %s", outer.Var, outer.Unit)
	}
	inner, ok := outer.Body.Stmts[0].(*mcpl.Foreach)
	if !ok || inner.Unit != "threads" || inner.Var != "t" || mcpl.ExprString(inner.Bound) != "256" {
		t.Fatalf("inner statement rewritten to %+v", outer.Body.Stmts[0])
	}
	if _, ok := inner.Body.Stmts[0].(*mcpl.Assign); !ok || len(inner.Body.Stmts) != 1 {
		t.Fatalf("inner body rewritten to %+v", inner.Body.Stmts)
	}
}

func TestTranslateRejectsNonDescendant(t *testing.T) {
	src := `
gpu void k(int n, float[n] a) {
  foreach (int b in n blocks) { }
}`
	prog := mcpl.MustParse(src)
	if _, err := Translate(prog, "k", level(t, "xeon_phi")); err == nil {
		t.Fatal("translated gpu kernel to xeon_phi (not a descendant)")
	}
	if _, err := Translate(prog, "missing", level(t, "gpu")); err == nil {
		t.Fatal("translated missing kernel")
	}
}

func TestTranslateHelperFunctionsPreserved(t *testing.T) {
	src := `
float sq(float x) { return x * x; }
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = sq(a[i]); }
}`
	prog := mcpl.MustParse(src)
	out, err := Translate(prog, "k", level(t, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Func("sq") == nil {
		t.Fatal("helper dropped by translation")
	}
	a := interp.NewFloatArray(5)
	for i := range a.F {
		a.F[i] = float64(i)
	}
	if err := interp.Run(out, "k", int64(5), a); err != nil {
		t.Fatal(err)
	}
	if a.At(3) != 9 {
		t.Fatalf("a[3] = %v", a.At(3))
	}
}

func TestValidateLevel(t *testing.T) {
	good := mcpl.MustParse(matmulSrc)
	for _, target := range []string{"perfect", "gpu", "gtx480", "xeon_phi"} {
		if err := ValidateLevel(good, "matmul", level(t, target)); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}
	// `blocks` is not defined at level perfect.
	bad := mcpl.MustParse(`
perfect void k(int n, float[n] a) {
  foreach (int b in n blocks) { }
}`)
	err := ValidateLevel(bad, "k", level(t, "perfect"))
	if err == nil || !strings.Contains(err.Error(), "blocks") {
		t.Fatalf("err = %v", err)
	}
	// local memory is not defined at level perfect.
	badMem := mcpl.MustParse(`
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) {
    local float[16] tile;
    tile[0] = a[i];
  }
}`)
	if err := ValidateLevel(badMem, "k", level(t, "gpu")); err == nil {
		t.Fatal("local memory accepted at level perfect")
	}
	// ... but is fine at level gpu.
	okMem := mcpl.MustParse(`
gpu void k(int n, float[n] a) {
  foreach (int b in n blocks) {
    local float[16] tile;
    foreach (int i in 16 threads) {
      tile[i] = a[i];
    }
  }
}`)
	if err := ValidateLevel(okMem, "k", level(t, "gtx480")); err != nil {
		t.Fatal(err)
	}
	if err := ValidateLevel(okMem, "k", level(t, "perfect")); err == nil ||
		err.Error() != `translate: kernel k is written for level "gpu", which is not an ancestor of "perfect"` {
		t.Fatalf("gpu kernel at level perfect: err = %v", err)
	}
	if err := ValidateLevel(okMem, "missing", level(t, "gpu")); err == nil ||
		err.Error() != `translate: kernel "missing" not found` {
		t.Fatalf("missing kernel: err = %v", err)
	}
}

// TestValidateLevelReportsLevelErrorFirst: when a kernel breaks both its
// level and the target's mappings, the level error wins wherever it sits.
func TestValidateLevelReportsLevelErrorFirst(t *testing.T) {
	h, err := hdl.Parse(`
hardware perfect {
  parallelism threads { max unlimited; }
  memory main { size unlimited; }
}
hardware dev extends perfect {
  parallelism lanes { max 8; }
  map threads lanes;
}`)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := h.Lookup("dev")
	if err != nil {
		t.Fatal(err)
	}
	prog := mcpl.MustParse(`
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = 1.0; }
  foreach (int b in n blocks) { }
}`)
	err = ValidateLevel(prog, "k", dev)
	if err == nil || err.Error() != `4:3: parallelism unit "blocks" is not defined by hardware description "perfect"` {
		t.Fatalf("err = %v", err)
	}
	prog = mcpl.MustParse(`
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) { a[i] = 1.0; }
}`)
	for _, v := range []func() error{
		func() error { return ValidateLevel(prog, "k", dev) },
		func() error { _, err := Translate(prog, "k", dev); return err },
	} {
		if err := v(); err == nil || err.Error() != `translate: unsupported mapping [lanes] for unit "threads"` {
			t.Fatalf("err = %v", err)
		}
	}
}

// TestExtents pins the default work-group extents and their clamp to the
// leaf's limit, outermost dimension first.
func TestExtents(t *testing.T) {
	for _, tc := range []struct {
		leaf string
		dims int
		want []int64
	}{
		{"hd7970", 1, []int64{256}},
		{"gtx480", 2, []int64{16, 16}},
		{"gtx480", 3, []int64{16, 4, 4}},
		{"xeon_phi", 1, []int64{16}},
		{"xeon_phi", 2, []int64{1, 16}},
		{"cpu", 2, []int64{1, 8}},
		{"perfect", 1, []int64{256}},
	} {
		if got := Extents(tc.dims, WorkgroupLimit(level(t, tc.leaf))); !slices.Equal(got, tc.want) {
			t.Errorf("%d-D on %s: extents %v, want %v", tc.dims, tc.leaf, got, tc.want)
		}
	}
}
