package codegen_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
)

// wantObserved is the set of scalar parameters each application's cost
// reads, on every version, leaf, scale and geometry setting. The others are
// per-leaf offsets and seeds, which must stay out of the cost cache's key.
var wantObserved = map[string][]string{
	"kmeans":   {"n", "k", "d"},
	"matmul":   {"n", "m", "p"},
	"nbody":    {"nloc", "n"},
	"raytrace": {"w", "h", "rows", "samples", "ns"},
}

// TestCostObservedSound checks the claim the cost cache rests on: redrawing
// every parameter outside the observed set leaves the cost bit-identical
// and the observed set unchanged.
func TestCostObservedSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eachGoldenCase(t, func(app string, ks *codegen.KernelSet, level, leaf string, h *hdl.Hierarchy, sc goldenScale) {
		c, err := ks.CompileAt(level, leaf, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, geometry := range []bool{false, true} {
			if geometry {
				if c, err = c.WithGeometry(nil); err != nil {
					t.Fatal(err)
				}
			}
			want, mask, err := c.CostObserved(sc.params)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for i, name := range c.ScalarParams() {
				if mask.Has(i) {
					names = append(names, name)
				}
			}
			id := app + " level=" + level + " leaf=" + leaf + " scale=" + sc.name
			if !reflect.DeepEqual(names, wantObserved[app]) {
				t.Fatalf("%s geometry=%v: observed %v, want %v", id, geometry, names, wantObserved[app])
			}
			for k := 0; k < 50; k++ {
				params := map[string]int64{}
				for i, name := range c.ScalarParams() {
					params[name] = sc.params[name]
					if !mask.Has(i) {
						params[name] = rng.Int63n(1 << 20)
					}
				}
				got, m, err := c.CostObserved(params)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || m != mask {
					t.Fatalf("%s geometry=%v params=%v: cost %+v observed %b, want %+v observed %b",
						id, geometry, params, got, m, want, mask)
				}
			}
		}
	})
}

// TestCostObservedSites pins the observed set at each kind of site the
// analysis reads a value from, on kernels small enough to reason about: the
// unread parameter of each (off, seed, f) must stay out.
func TestCostObservedSites(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		params map[string]int64
		want   []string
		alt    map[string]int64 // changes observed values only; must cost differently
	}{
		{"address coefficient and stride", `
perfect void k(int n, int s, int c, int off, float[n] a, float[n, c] b) {
  foreach (int i in n threads) {
    a[i * s] = b[i, 0];
    b[i, 1] = a[i + off];
  }
}`, map[string]int64{"n": 1024, "s": 2, "c": 4, "off": 7}, []string{"n", "s", "c"},
			map[string]int64{"n": 1024, "s": 1, "c": 4, "off": 7}},
		{"trip count, divisor, expect", `
perfect void k(int n, int q, int lo, int hi, int e, int seed, float[n] a) {
  foreach (int i in n / q threads) {
    int r = seed * 31 + i;
    for (int j = lo; j < hi; j++) {
      a[i] += 1.0;
    }
    @expect(e) while (a[i] > 0.0) {
      a[i] = a[i] - 1.0;
    }
  }
}`, map[string]int64{"n": 1024, "q": 4, "lo": 2, "hi": 9, "e": 3, "seed": 5}, []string{"n", "q", "lo", "hi", "e"}, nil},
		{"conditional arms", `
perfect void k(int n, int x, int y, int f, float[n] a) {
  foreach (int i in n threads) {
    int m = f > 0 ? x : y;
    for (int j = 0; j < m; j++) {
      a[i] += 1.0;
    }
  }
}`, map[string]int64{"n": 1024, "x": 4, "y": 4, "f": 1}, []string{"n", "x", "y"},
			map[string]int64{"n": 1024, "x": 4, "y": 5, "f": 1}},
		// Whether i*s - i*t cancels decides whether the loop bound is a
		// launch constant, so s and t are read even when it does not cancel.
		{"affine sum", `
perfect void k(int n, int s, int t, float[n] a) {
  foreach (int i in n threads) {
    int z = i * s - i * t;
    for (int j = 0; j < z + 4; j++) {
      a[i] += 1.0;
    }
  }
}`, map[string]int64{"n": 1024, "s": 2, "t": 3}, []string{"n", "s", "t"},
			map[string]int64{"n": 1024, "s": 5, "t": 5}},
	}
	for _, tc := range cases {
		ks, err := codegen.NewKernelSet("k", tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, err := ks.Compile("gtx480", hdl.Library())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cost, mask, err := c.CostObserved(tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.alt != nil {
			if alt, _ := c.Cost(tc.alt); alt == cost {
				t.Errorf("%s: %v and %v cost the same; the case shows nothing", tc.name, tc.params, tc.alt)
			}
		}
		var names []string
		for i, name := range c.ScalarParams() {
			if mask.Has(i) {
				names = append(names, name)
			}
		}
		if !reflect.DeepEqual(names, tc.want) {
			t.Errorf("%s: observed %v, want %v", tc.name, names, tc.want)
		}
	}
}
