package codegen_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cashmere/internal/apps"
	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
)

var update = flag.Bool("update", false, "rewrite testdata/cost_golden.txt from the current analysis")

const goldenFile = "testdata/cost_golden.txt"

// goldenApps lists every application kernel set with its launch parameters
// at verification scale (the benchmark's correctness checks) and at paper
// scale (Sec. V-B), leaf by leaf as the applications launch them.
var goldenApps = []struct {
	name    string
	kernels func(apps.Variant) (*codegen.KernelSet, error)
	scales  []goldenScale
}{
	{"kmeans", apps.KMeansKernels, []goldenScale{
		{"verify", map[string]int64{"n": 512, "k": 256, "d": 4}},
		{"paper", map[string]int64{"n": 1 << 18, "k": 4096, "d": 4}},
	}},
	{"matmul", apps.MatmulKernels, []goldenScale{
		{"verify", map[string]int64{"n": 16, "m": 16, "p": 64}},
		{"paper", map[string]int64{"n": 2048, "m": 2048, "p": 32768}},
	}},
	{"nbody", apps.NBodyKernels, []goldenScale{
		{"verify", map[string]int64{"nloc": 256, "off": 256, "n": 512}},
		{"paper", map[string]int64{"nloc": 4096, "off": 0, "n": 2_000_000}},
	}},
	{"raytrace", apps.RaytracerKernels, []goldenScale{
		{"verify", map[string]int64{"w": 16, "h": 8, "y0": 4, "rows": 4, "samples": 4, "ns": 8, "seed0": 1}},
		{"paper", map[string]int64{"w": 16384, "h": 8192, "y0": 4096, "rows": 4, "samples": 500, "ns": 8, "seed0": 1}},
	}},
}

type goldenScale struct {
	name   string
	params map[string]int64
}

// TestCostGolden pins the full analysis report and the device cost of every
// application kernel version on every device leaf it applies to. The cost
// model's results must not move unless a change means to move them; then
// regenerate with `go test ./internal/mcl/codegen -run TestCostGolden -update`.
func TestCostGolden(t *testing.T) {
	got := renderGolden(t)
	if *update {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", goldenFile, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", goldenFile, len(gl), len(wl))
}

// eachGoldenCase calls fn for every application kernel version at every
// scale on every device leaf the version applies to, in a fixed order.
func eachGoldenCase(t *testing.T, fn func(app string, ks *codegen.KernelSet, level, leaf string, h *hdl.Hierarchy, sc goldenScale)) {
	h := hdl.Library()
	var leaves []string
	for name := range h.Levels {
		if _, err := device.Lookup(name); err == nil {
			leaves = append(leaves, name)
		}
	}
	sort.Strings(leaves)

	for _, app := range goldenApps {
		// The optimized set holds every version the unoptimized one does.
		ks, err := app.kernels(apps.CashmereOptimized)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range ks.Levels() {
			for _, leaf := range leaves {
				lv, err := h.Lookup(leaf)
				if err != nil {
					t.Fatal(err)
				}
				if !lv.HasAncestor(level) {
					continue
				}
				for _, sc := range app.scales {
					fn(app.name, ks, level, leaf, h, sc)
				}
			}
		}
	}
}

func renderGolden(t *testing.T) string {
	var b strings.Builder
	eachGoldenCase(t, func(app string, ks *codegen.KernelSet, level, leaf string, h *hdl.Hierarchy, sc goldenScale) {
		fmt.Fprintf(&b, "== %s level=%s leaf=%s scale=%s\n", app, level, leaf, sc.name)
		writeGoldenCase(&b, ks, level, leaf, h, sc.params)
	})
	return b.String()
}

func writeGoldenCase(b *strings.Builder, ks *codegen.KernelSet, level, leaf string, h *hdl.Hierarchy, params map[string]int64) {
	c, err := ks.CompileAt(level, leaf, h)
	if err != nil {
		fmt.Fprintf(b, "compile error: %v\n", err)
		return
	}
	rep, err := c.Analyze(params)
	if err != nil {
		fmt.Fprintf(b, "analyze error: %v\n", err)
		return
	}
	fmt.Fprintf(b, "report flops=%s divergent=%s uniform=%s coalesced=%s strided=%s gathered=%s local=%d uses_local=%v parallelism=%s\n",
		g(rep.Flops), g(rep.DivergentFlops), g(rep.UniformBytes), g(rep.CoalescedBytes),
		g(rep.StridedBytes), g(rep.GatheredBytes), rep.LocalBytes, rep.UsesLocalMemory, g(rep.ThreadParallelism))
	for _, w := range rep.Warnings {
		fmt.Fprintf(b, "warning %s\n", w)
	}
	for _, a := range rep.Accesses {
		fmt.Fprintf(b, "access %s %v write=%v bytes=%s class=%v in_loop=%v loop_free=%v\n",
			a.Array, a.Pos, a.Write, g(a.Bytes), a.Class, a.InLoop, a.LoopFree)
	}
	writeGoldenCost(b, "cost", c, params)
	geo, err := c.WithGeometry(nil)
	if err != nil {
		fmt.Fprintf(b, "geometry error: %v\n", err)
		return
	}
	writeGoldenCost(b, "geometry_cost", geo, params)
}

func writeGoldenCost(b *strings.Builder, label string, c *codegen.Compiled, params map[string]int64) {
	kc, err := c.Cost(params)
	if err != nil {
		fmt.Fprintf(b, "%s error: %v\n", label, err)
		return
	}
	fmt.Fprintf(b, "%s flops=%s mem=%s compute_eff=%s bandwidth_eff=%s\n",
		label, g(kc.Flops), g(kc.MemBytes), g(kc.ComputeEff), g(kc.BandwidthEff))
}

// g formats a float with the fewest digits that round-trip exactly, so the
// golden file pins every bit.
func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
