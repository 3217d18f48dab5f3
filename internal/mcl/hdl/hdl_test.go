package hdl

import (
	"slices"
	"sort"
	"testing"
)

// leaves returns h's leaf levels (those with no children), sorted by name.
func leaves(h *Hierarchy) []*Level {
	hasChild := map[string]bool{}
	for _, l := range h.Levels {
		if l.Parent != nil {
			hasChild[l.Parent.Name] = true
		}
	}
	var out []*Level
	for _, l := range h.Levels {
		if !hasChild[l.Name] {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// pathToRoot returns the levels from l up to and including the root.
func pathToRoot(l *Level) []*Level {
	var path []*Level
	for lv := l; lv != nil; lv = lv.Parent {
		path = append(path, lv)
	}
	return path
}

func TestLibraryParses(t *testing.T) {
	h := Library()
	if h.Root == nil || h.Root.Name != "perfect" {
		t.Fatalf("root = %v", h.Root)
	}
}

func TestLibraryHasSevenAcceleratorLeavesPlusCPU(t *testing.T) {
	h := Library()
	var names []string
	for _, l := range leaves(h) {
		names = append(names, l.Name)
	}
	want := append([]string{"cpu"}, AcceleratorLeaves...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("leaves = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("leaves = %v, want %v", names, want)
		}
	}
}

func TestHierarchyStructureMatchesFig2(t *testing.T) {
	h := Library()
	edges := map[string]string{
		"gpu": "perfect", "mic": "perfect", "cpu": "perfect",
		"nvidia": "gpu", "amd": "gpu",
		"fermi": "nvidia", "kepler": "nvidia",
		"gtx480": "fermi", "c2050": "fermi",
		"k20": "kepler", "gtx680": "kepler", "titan": "kepler",
		"hd7970": "amd", "xeon_phi": "mic",
	}
	for child, parent := range edges {
		l, err := h.Lookup(child)
		if err != nil {
			t.Fatal(err)
		}
		if l.Parent == nil || l.Parent.Name != parent {
			t.Fatalf("%s parent = %v, want %s", child, l.Parent, parent)
		}
	}
}

func TestInheritanceLookups(t *testing.T) {
	h := Library()
	k20, _ := h.Lookup("k20")
	// threads is defined at gpu (re-specified at kepler); SIMD 32.
	u := k20.LookupPar("threads")
	if u == nil || u.SIMD != 32 {
		t.Fatalf("k20 threads = %+v", u)
	}
	// local memory on fermi subtree is 48K (overriding gpu's 16K).
	gtx480, _ := h.Lookup("gtx480")
	m := gtx480.LookupMem("local")
	if m == nil || m.Size != 48<<10 {
		t.Fatalf("gtx480 local = %+v", m)
	}
	// hd7970 overrides amd's 32K with 64K.
	hd, _ := h.Lookup("hd7970")
	if m := hd.LookupMem("local"); m == nil || m.Size != 64<<10 {
		t.Fatalf("hd7970 local = %+v", m)
	}
	// Properties parse onto the level that declares them: nvidia's warp.
	if nv := gtx480.Parent.Parent; nv.Name != "nvidia" || nv.Props["warp"] != "32" {
		t.Fatalf("%s warp = %q", nv.Name, nv.Props["warp"])
	}
	// SIMD width differs between vendors.
	if hd.LookupPar("threads").SIMD != 64 {
		t.Fatalf("amd wavefront simd = %d", hd.LookupPar("threads").SIMD)
	}
}

// TestMappingResolution: each mapping parses onto the level that declares
// it, and only gpu, mic and cpu declare one. Leaves inherit none of them as
// their own, so translate can tell a kernel's units from the ones a level
// below it decomposes.
func TestMappingResolution(t *testing.T) {
	h := Library()
	want := map[string][]string{"gpu": {"blocks", "threads"}, "mic": {"cores", "vectors"}, "cpu": {"cores", "vectors"}}
	for name, lv := range h.Levels {
		m, ok := lv.Mappings["threads"]
		if w, declares := want[name]; ok != declares || !slices.Equal(m, w) || len(lv.Mappings) > 1 {
			t.Errorf("%s declares mappings %v, want threads -> %v", name, lv.Mappings, w)
		}
	}
}

func TestDepthAndPath(t *testing.T) {
	h := Library()
	gtx480, _ := h.Lookup("gtx480")
	if gtx480.Depth() != 4 { // perfect>gpu>nvidia>fermi>gtx480
		t.Fatalf("gtx480 depth = %d", gtx480.Depth())
	}
	path := pathToRoot(gtx480)
	if len(path) != 5 || path[0].Name != "gtx480" || path[4].Name != "perfect" {
		t.Fatalf("path = %v", path)
	}
	if !gtx480.HasAncestor("gpu") || gtx480.HasAncestor("mic") {
		t.Fatal("HasAncestor wrong")
	}
}

func TestMostSpecificSelection(t *testing.T) {
	// The exact scenario from Sec. III-A: kernels exist on perfect, gpu, amd
	// and hd7970. The Phi gets perfect, NVIDIA GPUs get gpu, the HD7970 gets
	// hd7970.
	h := Library()
	avail := []string{"perfect", "gpu", "amd", "hd7970"}
	cases := map[string]string{
		"xeon_phi": "perfect",
		"k20":      "gpu",
		"gtx480":   "gpu",
		"titan":    "gpu",
		"hd7970":   "hd7970",
	}
	for leaf, want := range cases {
		got, err := h.MostSpecific(avail, leaf)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("MostSpecific(%s) = %s, want %s", leaf, got, want)
		}
	}
}

func TestMostSpecificNoMatch(t *testing.T) {
	h := Library()
	if _, err := h.MostSpecific([]string{"amd"}, "k20"); err == nil {
		t.Fatal("amd kernel should not apply to k20")
	}
}

func TestLookupUnknown(t *testing.T) {
	h := Library()
	if _, err := h.Lookup("gtx9000"); err == nil {
		t.Fatal("Lookup of unknown level succeeded")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`hardware a { } hardware a { }`,             // redeclared
		`hardware a extends missing { }`,            // unknown parent
		`hardware a { } hardware b { }`,             // two roots
		`hardware a { bogus x; }`,                   // unknown clause
		`hardware a { parallelism t { max abc; } }`, // bad size
		`hardware a { parallelism t { simd x; } }`,  // bad simd
		`hardware a { map t ; }`,                    // empty map
		`hardware a {`,                              // unterminated
		`hardware`,                                  // missing name
		``,                                          // no root
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse succeeded on %q", src)
		}
	}
}

func TestParseSizes(t *testing.T) {
	src := `hardware x { memory a { size 48K; } memory b { size 2M; } memory c { size 1G; } memory d { size unlimited; } }`
	h, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	x := h.Levels["x"]
	if x.Mem["a"].Size != 48<<10 || x.Mem["b"].Size != 2<<20 || x.Mem["c"].Size != 1<<30 || x.Mem["d"].Size != 0 {
		t.Fatalf("sizes = %+v", x.Mem)
	}
}

func TestCommentsIgnored(t *testing.T) {
	src := "# leading comment\nhardware x { # inline\n parallelism t { max 4; } }"
	h, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if h.Levels["x"].Par["t"].Max != 4 {
		t.Fatal("comment parsing broke clause")
	}
}
