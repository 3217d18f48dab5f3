package apps

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/mcl/translate"
)

// TestEveryKernelCompilesForEveryLeaf pushes all four applications' kernel
// sets (both variants) through the full MCL pipeline — most-specific
// version selection, level validation, cost analysis and launch-glue
// computation — for each of the seven accelerator leaves, and translates
// and emits every version that applies to the leaf as mclc -emit does:
// the translated program must type-check and the emitter must render every
// statement. This is the breadth guarantee behind "scalable development of
// optimized kernels" (Sec. IV).
// verifyApps are the four applications' kernel sets with launch parameters
// at verification scale.
var verifyApps = map[string]struct {
	kernels func(Variant) (*codegen.KernelSet, error)
	params  map[string]int64
}{
	"raytrace": {RaytracerKernels, map[string]int64{
		"w": 1024, "h": 512, "y0": 0, "rows": 8, "samples": 10, "ns": 8, "seed0": 1}},
	"matmul": {MatmulKernels, map[string]int64{"n": 256, "m": 256, "p": 512}},
	"kmeans": {KMeansKernels, map[string]int64{"n": 4096, "k": 256, "d": 4}},
	"nbody":  {NBodyKernels, map[string]int64{"nloc": 1024, "off": 0, "n": 8192}},
}

func TestEveryKernelCompilesForEveryLeaf(t *testing.T) {
	h := hdl.Library()
	for name, a := range verifyApps {
		for _, variant := range []Variant{CashmereUnoptimized, CashmereOptimized} {
			ks, err := a.kernels(variant)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, variant, err)
			}
			for _, leaf := range hdl.AcceleratorLeaves {
				c, err := ks.Compile(leaf, h)
				if err != nil {
					t.Fatalf("%s/%v on %s: compile: %v", name, variant, leaf, err)
				}
				lv, err := h.Lookup(leaf)
				if err != nil {
					t.Fatal(err)
				}
				for _, level := range ks.Levels() {
					if !lv.HasAncestor(level) {
						continue
					}
					tr, err := translate.Translate(ks.Version(level).Prog, ks.Name, lv)
					if err != nil {
						t.Fatalf("%s/%v level %s on %s: translate: %v", name, variant, level, leaf, err)
					}
					if _, err := mcpl.Check(tr); err != nil {
						t.Fatalf("%s/%v level %s on %s: translated kernel does not check: %v", name, variant, level, leaf, err)
					}
					text, err := codegen.EmitOpenCL(tr, ks.Name, lv)
					if err != nil {
						t.Fatalf("%s/%v level %s on %s: emit: %v", name, variant, level, leaf, err)
					}
					if !strings.Contains(text, "__kernel") {
						t.Fatalf("%s/%v level %s on %s: no kernel in generated code", name, variant, level, leaf)
					}
				}
				cost, err := c.Cost(a.params)
				if err != nil {
					t.Fatalf("%s/%v on %s: cost: %v", name, variant, leaf, err)
				}
				if !cost.Valid() || cost.Flops <= 0 {
					t.Fatalf("%s on %s: bad cost %+v", name, leaf, cost)
				}
				spec, _ := device.Lookup(leaf)
				if gf := spec.GFLOPS(cost); gf <= 0 || gf > spec.PeakSPFlops/1e9 {
					t.Fatalf("%s on %s: implausible %f GFLOPS", name, leaf, gf)
				}
				glue, err := c.LaunchConfig(a.params)
				if err != nil {
					t.Fatalf("%s/%v on %s: glue: %v", name, variant, leaf, err)
				}
				for _, n := range glue.GlobalSize {
					if n <= 0 {
						t.Fatalf("%s on %s: empty launch config %v", name, leaf, glue.GlobalSize)
					}
				}
			}
		}
	}
}

// ndRangeID matches one emitted foreach: its id function, dimension and
// bound, e.g. `int _t2 = get_local_id(0); /* foreach _t2 in 16 threads */`.
var ndRangeID = regexp.MustCompile(`^( *)int \w+ = get_(group|local|global)_id\((\d+)\); /\* foreach \w+ in (.+) \w+ \*/$`)

// TestEmittedGeometryMatchesLaunchConfig: for every kernel version of the
// four applications on every accelerator leaf it applies to, the OpenCL that
// Translate and EmitOpenCL generate (what mclc -emit prints) launches the
// geometry Compiled.LaunchConfig prices: at most three ND-range dimensions,
// every get_local_id(k) inside the get_group_id(k) it pairs with, local
// extents equal to LaunchConfig's LocalSize, within the leaf's work-group
// limit.
func TestEmittedGeometryMatchesLaunchConfig(t *testing.T) {
	h := hdl.Library()
	for name, a := range verifyApps {
		ks, err := a.kernels(CashmereOptimized)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range hdl.AcceleratorLeaves {
			lv, err := h.Lookup(leaf)
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range ks.Levels() {
				if !lv.HasAncestor(level) {
					continue
				}
				c, err := ks.CompileAt(level, leaf, h)
				if err != nil {
					t.Fatal(err)
				}
				glue, err := c.LaunchConfig(a.params)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := translate.Translate(ks.Version(level).Prog, ks.Name, lv)
				if err != nil {
					t.Fatal(err)
				}
				text, err := codegen.EmitOpenCL(tr, ks.Name, lv)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkEmittedGeometry(text, glue.LocalSize, c.MaxWorkgroup()); err != nil {
					t.Errorf("%s level %s on %s: %v\n%s", name, level, leaf, err, text)
				}
			}
		}
	}
}

// checkEmittedGeometry reads the ND-range ids of emitted OpenCL and checks
// them against the priced local size and the work-group limit.
func checkEmittedGeometry(text string, local []int64, limit int64) error {
	type open struct {
		indent int
		fn     string
		dim    int
	}
	var stack []open // enclosing foreachs
	emitted := map[int]int64{}
	for _, line := range strings.Split(text, "\n") {
		indent := len(line) - len(strings.TrimLeft(line, " "))
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if top.indent < indent || top.indent == indent && strings.TrimSpace(line) != "}" {
				break
			}
			stack = stack[:len(stack)-1]
		}
		m := ndRangeID.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		fn, dim := m[2], 0
		if dim, _ = strconv.Atoi(m[3]); dim >= 3 {
			return fmt.Errorf("get_%s_id(%d): more than 3 ND-range dimensions", fn, dim)
		}
		if fn == "local" {
			paired := false
			for _, o := range stack {
				paired = paired || o.fn == "group" && o.dim == dim
			}
			if !paired {
				return fmt.Errorf("get_local_id(%d) outside get_group_id(%d)", dim, dim)
			}
			e, err := strconv.ParseInt(m[4], 10, 64)
			if err != nil {
				return fmt.Errorf("get_local_id(%d) ranges over %s, not a constant extent", dim, m[4])
			}
			if prev, ok := emitted[dim]; ok && prev != e {
				return fmt.Errorf("get_local_id(%d) ranges over both %d and %d", dim, prev, e)
			}
			emitted[dim] = e
		}
		stack = append(stack, open{indent, fn, dim})
	}
	if len(emitted) != len(local) {
		return fmt.Errorf("emitted %d local dimensions, LaunchConfig prices %v", len(emitted), local)
	}
	items := int64(1)
	for k, e := range local {
		if emitted[k] != e {
			return fmt.Errorf("local extent %d of dimension %d, LaunchConfig prices %v", emitted[k], k, local)
		}
		items *= e
	}
	if limit > 0 && items > limit {
		return fmt.Errorf("work-group of %d items exceeds the limit of %d", items, limit)
	}
	return nil
}

// TestKernelSelectionMatrix verifies the Sec. III-A selection rule across
// the optimized sets: NVIDIA and AMD leaves get the gpu-level kernels, the
// Xeon Phi gets its mic version where one exists and otherwise falls back
// to perfect.
func TestKernelSelectionMatrix(t *testing.T) {
	h := hdl.Library()
	cases := []struct {
		app      func(Variant) (*codegen.KernelSet, error)
		leaf     string
		expected string
	}{
		{MatmulKernels, "gtx480", "gpu"},
		{MatmulKernels, "hd7970", "gpu"},
		{MatmulKernels, "xeon_phi", "perfect"},
		{KMeansKernels, "k20", "gpu"},
		{KMeansKernels, "xeon_phi", "mic"},
		{NBodyKernels, "titan", "gpu"},
		{NBodyKernels, "xeon_phi", "perfect"},
	}
	for _, tc := range cases {
		ks, err := tc.app(CashmereOptimized)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ks.Compile(tc.leaf, h)
		if err != nil {
			t.Fatal(err)
		}
		if c.SourceLevel != tc.expected {
			t.Errorf("%s on %s selected level %s, want %s", ks.Name, tc.leaf, c.SourceLevel, tc.expected)
		}
	}
}

// TestCompileErrorsOnCustomHierarchy pins the exact errors Compile returns
// for kernels a small custom hardware description rejects: a unit the
// target leaf does not define (levels inherit their ancestors' units, so
// the declared level lacks it too and the level check reports it), and a
// unit the leaf decomposes into other than two units.
func TestCompileErrorsOnCustomHierarchy(t *testing.T) {
	h, err := hdl.Parse(`
hardware perfect {
  parallelism threads { max unlimited; }
  memory main { size unlimited; }
}
hardware gpu extends perfect {
  parallelism threads { max 1024; }
  memory global { size unlimited; }
}
hardware dev extends gpu {
  parallelism cores { max 8; }
  parallelism lanes { max 16; }
  map threads cores lanes threads;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		kernels func(Variant) (*codegen.KernelSet, error)
		variant Variant
		leaf    string
		want    string
	}{
		{"unit undefined at the leaf", MatmulKernels, CashmereOptimized, "dev",
			`4:3: parallelism unit "blocks" is not defined by hardware description "gpu"`},
		{"mapping of three units", MatmulKernels, CashmereUnoptimized, "dev",
			`translate: unsupported mapping [cores lanes threads] for unit "threads"`},
	} {
		ks, err := tc.kernels(tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ks.Compile(tc.leaf, h)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
