package codegen

import (
	"fmt"
	"sort"
	"sync"

	"cashmere/internal/device"
	"cashmere/internal/mcl/closure"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/mcl/translate"
)

// KernelSet holds the versions of one kernel at different abstraction
// levels — the "multiple files with different versions of the same kernel"
// that stepwise refinement produces (Sec. III-A).
type KernelSet struct {
	Name     string
	Versions map[string]*mcpl.Info // level -> checked program containing the kernel

	sources map[string]string // level -> source text, for Fingerprint

	// mu guards the compile cache: every node and cluster that uses the set
	// shares one Compiled per (level, leaf, hierarchy), as MCL compiles each
	// kernel once per hardware description (Sec. III-A), and one closure
	// engine per level. Failures are not cached.
	mu       sync.Mutex
	compiled map[compileKey]*Compiled
	engines  map[string]*closure.Kernel // level -> executable form
}

type compileKey struct {
	level, leaf string
	h           *hdl.Hierarchy
}

// NewKernelSet parses and checks each source file and indexes the versions
// of the named kernel by their declared level. Each version is checked here,
// once; compilation, cost analysis and feedback reuse its checker result.
func NewKernelSet(name string, sources ...string) (*KernelSet, error) {
	ks := &KernelSet{
		Name: name, Versions: map[string]*mcpl.Info{}, sources: map[string]string{},
		compiled: map[compileKey]*Compiled{}, engines: map[string]*closure.Kernel{},
	}
	for i, src := range sources {
		prog, err := mcpl.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("codegen: kernel %s, source %d: %w", name, i, err)
		}
		info, err := mcpl.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("codegen: kernel %s, source %d: %w", name, i, err)
		}
		k := prog.Kernel(name)
		if k == nil {
			return nil, fmt.Errorf("codegen: source %d does not define kernel %q", i, name)
		}
		if _, dup := ks.Versions[k.Level]; dup {
			return nil, fmt.Errorf("codegen: kernel %s has two versions at level %q", name, k.Level)
		}
		ks.Versions[k.Level] = info
		ks.sources[k.Level] = src
	}
	if len(ks.Versions) == 0 {
		return nil, fmt.Errorf("codegen: kernel %s has no versions", name)
	}
	return ks, nil
}

// FNV-1a constants for Fingerprint.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Fingerprint hashes the kernel set's name and every version's source text
// (in sorted level order). Tuning-cache entries are versioned by it: editing
// any version of the kernel invalidates its cached tuning results.
func (ks *KernelSet) Fingerprint() uint64 {
	h := uint64(fnvOffset)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= fnvPrime
		}
		h ^= 0xff // separator so ("a","bc") and ("ab","c") differ
		h *= fnvPrime
	}
	mix(ks.Name)
	for _, level := range ks.Levels() {
		mix(level)
		mix(ks.sources[level])
	}
	return h
}

// Levels returns the available version levels, sorted.
func (ks *KernelSet) Levels() []string {
	var out []string
	for l := range ks.Versions {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Compiled is a kernel compiled for one leaf hardware description: the
// executable form, the cost-model hooks and the launch glue. It holds no
// generated device code; mclc -emit translates and emits that.
type Compiled struct {
	Name        string
	Leaf        string
	SourceLevel string // level of the version selected by MostSpecific
	Distance    int    // hierarchy distance from SourceLevel to Leaf

	src    *mcpl.Info // the selected version, checked; used for execution/analysis
	spec   *device.Spec
	engine *closure.Kernel // closure-compiled executable form

	scalars  []string        // scalar int parameters, in declaration order
	nest     []*mcpl.Foreach // the kernel's leading foreach nest, outermost first
	geomDeps ParamMask       // scalar parameters named in the nest's bounds

	extents  []int64 // tuned per-dimension work-group extents (flat nests only; see WithGeometry)
	geomCost bool    // fold the launch geometry into Cost (see WithGeometry)
	maxWG    int64   // leaf work-group size limit (0 = unlimited)
}

// Compile selects the most specific applicable version for the leaf,
// checks it against its level and the leaf (translate.ValidateLevel), and
// produces the executable form plus cost and glue metadata. The result is
// shared (see CompileAt) and must not be modified.
func (ks *KernelSet) Compile(leaf string, h *hdl.Hierarchy) (*Compiled, error) {
	level, err := h.MostSpecific(ks.Levels(), leaf)
	if err != nil {
		return nil, fmt.Errorf("codegen: kernel %s: %w (Cashmere suggests adding a hardware description for %q)", ks.Name, err, leaf)
	}
	return ks.CompileAt(level, leaf, h)
}

// CompileAt compiles the version at an explicitly chosen level for the leaf,
// bypassing the MostSpecific default. The auto-tuner uses it to evaluate
// every applicable (level, geometry) configuration; the level must be an
// ancestor-or-self of the leaf. The first call for a (level, leaf,
// hierarchy) compiles; later calls, from any goroutine, return the same
// Compiled, which is never modified (WithGeometry makes a private variant).
func (ks *KernelSet) CompileAt(level, leaf string, h *hdl.Hierarchy) (*Compiled, error) {
	key := compileKey{level, leaf, h}
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if c, ok := ks.compiled[key]; ok {
		return c, nil
	}
	c, err := ks.compileAt(level, leaf, h)
	if err != nil {
		return nil, err
	}
	ks.compiled[key] = c
	return c, nil
}

// compileAt is CompileAt's compilation; ks.mu is held.
func (ks *KernelSet) compileAt(level, leaf string, h *hdl.Hierarchy) (*Compiled, error) {
	lv, err := h.Lookup(leaf)
	if err != nil {
		return nil, err
	}
	info, ok := ks.Versions[level]
	if !ok {
		return nil, fmt.Errorf("codegen: kernel %s has no version at level %q (available: %v)", ks.Name, level, ks.Levels())
	}
	srcLv, err := h.Lookup(level)
	if err != nil {
		return nil, err
	}
	if !lv.HasAncestor(level) {
		return nil, fmt.Errorf("codegen: kernel %s: level %q does not apply to device leaf %q", ks.Name, level, leaf)
	}
	if err := translate.ValidateLevel(info.Prog, ks.Name, lv); err != nil {
		return nil, err
	}
	engine := ks.engines[level]
	if engine == nil {
		if engine, err = closure.Compile(info.Prog, ks.Name); err != nil {
			return nil, fmt.Errorf("codegen: kernel %s: %w", ks.Name, err)
		}
		ks.engines[level] = engine
	}
	spec, err := device.Lookup(leaf)
	if err != nil {
		// Leaves without a device model (none today) still compile; cost
		// queries will fail.
		spec = nil
	}
	f := info.Prog.Kernel(ks.Name)
	var scalars []string
	for _, prm := range f.Params {
		if !prm.Type.IsArray() && prm.Type.Kind == mcpl.KindInt {
			scalars = append(scalars, prm.Name)
		}
	}
	nest := translate.Nest(f)
	var geomDeps ParamMask
	for _, fe := range nest {
		geomDeps |= namedParams(fe.Bound, scalars)
	}
	return &Compiled{
		Name:        ks.Name,
		Leaf:        leaf,
		SourceLevel: level,
		Distance:    lv.Depth() - srcLv.Depth(),
		src:         info,
		spec:        spec,
		engine:      engine,
		scalars:     scalars,
		nest:        nest,
		geomDeps:    geomDeps,
		maxWG:       translate.WorkgroupLimit(lv),
	}, nil
}

// namedParams returns the scalar parameters an integer expression names, as
// evalIntExpr reads them.
func namedParams(x mcpl.Expr, scalars []string) ParamMask {
	switch v := x.(type) {
	case *mcpl.Ident:
		for i, s := range scalars {
			if s == v.Name {
				return paramBit(i)
			}
		}
	case *mcpl.Binary:
		return namedParams(v.L, scalars) | namedParams(v.R, scalars)
	case *mcpl.Unary:
		return namedParams(v.X, scalars)
	}
	return 0
}

// ScalarParams lists the kernel's scalar int parameters in declaration
// order: bit i of a ParamMask stands for the i-th.
func (c *Compiled) ScalarParams() []string { return c.scalars }

// FlatLaunchDims reports the dimensionality of the kernel's flat foreach
// nest — the shape whose work-group extents the tuner may choose — or 0 when
// the kernel fixes its own blocks-of-threads structure (hand-optimized
// versions pin their geometry in the source).
func (c *Compiled) FlatLaunchDims() int {
	groups, threads := 0, 0
	for _, fe := range c.nest {
		if fe.Unit != "threads" && fe.Unit != "vectors" {
			groups++
		} else {
			threads++
		}
	}
	if groups > 0 && groups == threads {
		return 0
	}
	return len(c.nest)
}

// WithGeometry returns a private copy of c under the geometry-aware cost
// model: Cost folds the concrete launch geometry in (SIMD lane fit,
// work-group limit overruns, bounds padding, compute-unit quantization; see
// geometryEff), and the flat foreach nest launches with the work-group
// extents local (the launch-time local size of the generated OpenCL, which
// needs no re-emission). nil or empty local keeps the default extents
// (translate.Extents under the leaf's limit: the geometry mclc -emit
// generates). The extents must match the nest's dimensionality, be
// positive, and stay within the leaf's work-group limit. c itself, shared by
// every caller of Compile, keeps the geometry-free cost model; the tuner and
// tuned clusters use the copy for every configuration they compare, default
// geometry included.
func (c *Compiled) WithGeometry(local []int64) (*Compiled, error) {
	if len(local) > 0 {
		nd := c.FlatLaunchDims()
		if nd == 0 {
			return nil, fmt.Errorf("codegen: kernel %s at level %s fixes its own launch geometry", c.Name, c.SourceLevel)
		}
		if len(local) != nd {
			return nil, fmt.Errorf("codegen: kernel %s: %d extents for a %d-dimension nest", c.Name, len(local), nd)
		}
		p := int64(1)
		for _, e := range local {
			if e < 1 {
				return nil, fmt.Errorf("codegen: kernel %s: non-positive work-group extent %d", c.Name, e)
			}
			p *= e
		}
		if c.maxWG > 0 && p > c.maxWG {
			return nil, fmt.Errorf("codegen: kernel %s: work-group of %d items exceeds the %s limit of %d", c.Name, p, c.Leaf, c.maxWG)
		}
	}
	t := *c
	t.extents = append([]int64(nil), local...)
	t.geomCost = true
	return &t, nil
}

// MaxWorkgroup reports the leaf's work-group size limit (0 = unlimited).
func (c *Compiled) MaxWorkgroup() int64 { return c.maxWG }

// Run executes the kernel on the host at verification scale, through the
// closure-compiled engine (internal/mcl/closure).
func (c *Compiled) Run(args ...any) error { return c.engine.Run(args...) }

// Analyze runs the cost analysis for a launch with the given scalar
// parameters.
func (c *Compiled) Analyze(params map[string]int64) (*Report, error) {
	simd := 32
	if c.spec != nil {
		simd = c.spec.SIMDWidth
	}
	return Analyze(c.src, c.Name, params, simd)
}

// Cost returns the device cost descriptor for a launch. On a WithGeometry
// copy, the concrete work-group geometry of the launch degrades the
// efficiency terms (see geometryEff); kernels whose geometry cannot be
// derived for the parameters fall back to the pure analysis cost.
func (c *Compiled) Cost(params map[string]int64) (device.KernelCost, error) {
	kc, _, err := c.CostObserved(params)
	return kc, err
}

// CostObserved returns Cost together with the scalar parameters it read:
// the analysis's Report.Observed and, with geometry cost on, those named in
// the bounds LaunchConfig evaluates. Every launch that agrees with this one
// on the observed parameters has the same cost.
func (c *Compiled) CostObserved(params map[string]int64) (device.KernelCost, ParamMask, error) {
	if c.spec == nil {
		return device.KernelCost{}, 0, fmt.Errorf("codegen: no device model for leaf %q", c.Leaf)
	}
	rep, err := c.Analyze(params)
	if err != nil {
		return device.KernelCost{}, 0, err
	}
	kc := Cost(rep, c.spec, c.Distance)
	observed := rep.Observed
	if c.geomCost {
		observed |= c.geomDeps
		if g, gerr := c.LaunchConfig(params); gerr == nil {
			eff := geometryEff(c.spec, c.maxWG, g)
			kc.ComputeEff *= eff
			if kc.ComputeEff < 0.02 {
				kc.ComputeEff = 0.02
			}
			kc.BandwidthEff *= eff
			if kc.BandwidthEff < 0.05 {
				kc.BandwidthEff = 0.05
			}
		}
	}
	return kc, observed, nil
}

// Glue is the launch configuration MCL generates for Cashmere: the OpenCL
// work-group/work-item shape for a concrete launch (Sec. III-A: "MCL
// determines the work-group and work-item configuration based on the kernel
// parameters and its hardware descriptions").
type Glue struct {
	GlobalSize []int64
	LocalSize  []int64
	// Bounds are the raw per-dimension iteration extents before global-size
	// round-up; the geometry cost model charges the padding between the two.
	Bounds []int64
}

// LaunchConfig computes the glue configuration for a launch with the given
// scalar parameters.
func (c *Compiled) LaunchConfig(params map[string]int64) (Glue, error) {
	type dim struct {
		bound int64
		group bool // blocks/cores vs threads/vectors
	}
	var dims []dim
	for _, fe := range c.nest {
		b, err := evalIntExpr(fe.Bound, params)
		if err != nil {
			return Glue{}, fmt.Errorf("codegen: foreach bound %s: %w", mcpl.ExprString(fe.Bound), err)
		}
		dims = append(dims, dim{bound: b, group: fe.Unit != "threads" && fe.Unit != "vectors"})
	}
	if len(dims) == 0 {
		return Glue{}, fmt.Errorf("codegen: kernel %s has no foreach parallelism", c.Name)
	}
	var groups, threads []int64
	for _, d := range dims {
		if d.group {
			groups = append(groups, d.bound)
		} else {
			threads = append(threads, d.bound)
		}
	}
	g := Glue{}
	if len(groups) > 0 && len(groups) == len(threads) {
		// Explicit blocks-of-threads structure (hand-optimized kernels):
		// pair the i-th group dimension with the i-th thread dimension.
		for i := range groups {
			g.GlobalSize = append(g.GlobalSize, groups[i]*threads[i])
			g.LocalSize = append(g.LocalSize, threads[i])
			g.Bounds = append(g.Bounds, groups[i]*threads[i])
		}
		return g, nil
	}
	// Flat thread-style nest (level perfect): MCL picks the work-group shape
	// from its hardware descriptions, as Translate does, unless the tuner
	// pinned one.
	ext := c.extents
	if len(ext) == 0 {
		ext = translate.Extents(len(dims), c.maxWG)
	}
	for i, d := range dims {
		e := ext[i]
		g.LocalSize = append(g.LocalSize, e)
		g.GlobalSize = append(g.GlobalSize, (d.bound+e-1)/e*e)
		g.Bounds = append(g.Bounds, d.bound)
	}
	return g, nil
}

// evalIntExpr evaluates an integer expression over launch parameters.
func evalIntExpr(x mcpl.Expr, params map[string]int64) (int64, error) {
	switch v := x.(type) {
	case *mcpl.IntLit:
		return v.Value, nil
	case *mcpl.Ident:
		if val, ok := params[v.Name]; ok {
			return val, nil
		}
		return 0, fmt.Errorf("unknown parameter %q", v.Name)
	case *mcpl.Binary:
		l, err := evalIntExpr(v.L, params)
		if err != nil {
			return 0, err
		}
		r, err := evalIntExpr(v.R, params)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			if r == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return l / r, nil
		case "%":
			if r == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return l % r, nil
		}
		return 0, fmt.Errorf("unsupported operator %q", v.Op)
	case *mcpl.Unary:
		if v.Op == "-" {
			n, err := evalIntExpr(v.X, params)
			return -n, err
		}
		return 0, fmt.Errorf("unsupported unary %q", v.Op)
	default:
		return 0, fmt.Errorf("unsupported expression %s", mcpl.ExprString(x))
	}
}
