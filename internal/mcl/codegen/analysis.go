// Package codegen turns checked MCPL kernels into everything Cashmere needs
// at run time: OpenCL-style source text, an executable form (the closure
// engine of mcl/closure), glue
// configuration (work-group/work-item shapes, Sec. III-A), and — central to
// this reproduction — a cost descriptor derived from static analysis of the
// checked program.
//
// The same analysis drives the stepwise-refinement feedback engine
// (mcl/feedback): uncoalesced accesses, missing local-memory reuse and SIMD
// divergence both generate feedback messages and degrade the modeled
// efficiency factors, so following the compiler's advice genuinely improves
// modeled performance, as it does on real hardware.
package codegen

import (
	"fmt"
	"sort"

	"cashmere/internal/mcl/mcpl"
)

// Access describes one static global-memory access site, classified
// relative to the SIMD lane dimension (the innermost foreach).
type Access struct {
	Array    string
	Pos      mcpl.Pos
	Write    bool
	Bytes    float64 // dynamic traffic attributed to this site
	Class    AccessClass
	InLoop   bool // executed under a sequential loop
	LoopFree bool // subscripts do not depend on the enclosing sequential loop variables
}

// AccessClass classifies an access pattern across the SIMD lanes.
type AccessClass int

// Access classes.
const (
	AccessUniform   AccessClass = iota // same address across lanes: broadcast/cached
	AccessCoalesced                    // unit stride across lanes
	AccessStrided                      // constant non-unit stride
	AccessGathered                     // data-dependent address
)

func (c AccessClass) String() string {
	switch c {
	case AccessUniform:
		return "uniform"
	case AccessCoalesced:
		return "coalesced"
	case AccessStrided:
		return "strided"
	default:
		return "gathered"
	}
}

// Report is the result of analyzing one kernel launch with concrete scalar
// parameters.
type Report struct {
	Kernel string
	Level  string

	Flops          float64 // useful floating-point operations
	DivergentFlops float64 // flops under data-dependent control flow

	UniformBytes    float64 // broadcast/cached traffic (discounted by SIMD width)
	CoalescedBytes  float64
	StridedBytes    float64
	GatheredBytes   float64
	LocalBytes      int64 // local-memory footprint per work-group
	UsesLocalMemory bool

	Accesses []Access
	Warnings []string

	// ThreadParallelism is the product of the foreach extents: the exposed
	// parallelism of the launch.
	ThreadParallelism float64

	// Observed is the set of scalar parameters whose values the analysis
	// read: foreach extents, loop trip counts and @expect hints, array
	// dimensions, the divisor of a folded / or %, the arms of a conditional
	// that both fold to constants, and the coefficients of an address or of
	// a sum of affine values (whether its terms cancel). Every other
	// parameter only flows into values the analysis never inspects, so the
	// report is the same for any launch that agrees with this one on the
	// observed parameters.
	Observed ParamMask
}

// ParamMask is a set of a kernel's scalar int parameters: bit i stands for
// the i-th in declaration order (Compiled.ScalarParams lists them). The
// 16th and later parameters share the top bit. Sixteen bits keep aval, and
// with it the analyzer's scope stack, at its size without masks.
type ParamMask uint16

func paramBit(i int) ParamMask { return 1 << min(i, 15) }

// Has reports whether the i-th scalar int parameter is in the set.
func (m ParamMask) Has(i int) bool { return m&paramBit(i) != 0 }

// DivergentFrac reports the fraction of flops under divergent control flow.
func (r *Report) DivergentFrac() float64 {
	if r.Flops == 0 {
		return 0
	}
	return r.DivergentFlops / r.Flops
}

// Analyze statically analyzes a kernel launch of a checked program. params
// maps every scalar int parameter to its concrete launch value; simdWidth is
// the lane width of the target device (32 for NVIDIA, 64 for AMD, 16 for the
// Phi, 4 for SSE CPUs).
func Analyze(info *mcpl.Info, kernel string, params map[string]int64, simdWidth int) (*Report, error) {
	f := info.Prog.Kernel(kernel)
	if f == nil {
		return nil, fmt.Errorf("codegen: kernel %q not found", kernel)
	}
	if simdWidth < 1 {
		simdWidth = 1
	}
	a := &analyzer{
		info:   info,
		rep:    &Report{Kernel: kernel, Level: f.Level, ThreadParallelism: 1},
		simd:   simdWidth,
		spaces: map[string]mcpl.Space{},
		dims:   map[string][]mcpl.Expr{},
		vars:   make([]binding, 0, 64), // the raytracer nests about 60 deep
	}
	bit := 0
	for _, prm := range f.Params {
		if prm.Type.IsArray() {
			space := prm.Space
			if space == mcpl.SpaceDefault {
				space = mcpl.SpaceGlobal
			}
			a.spaces[prm.Name] = space
			a.dims[prm.Name] = prm.Type.Dims
			continue
		}
		if prm.Type.Kind != mcpl.KindInt {
			a.bind(prm.Name, symval) // float/bool params are uniform values
			continue
		}
		v, ok := params[prm.Name]
		if !ok {
			return nil, fmt.Errorf("codegen: missing launch value for scalar parameter %q", prm.Name)
		}
		a.bind(prm.Name, aval{val: v, deps: paramBit(bit)})
		bit++
	}
	a.block(f.Body, ctx{mult: 1})
	sort.Slice(a.rep.Warnings, func(i, j int) bool { return a.rep.Warnings[i] < a.rep.Warnings[j] })
	return a.rep, nil
}

// aval is an abstract value: constant + affine combination of parallel/loop
// variables + a data-dependence taint. deps holds the scalar parameters the
// constant was computed from and tdeps those the coefficients were; the
// analyzer adds them to Report.Observed wherever it reads the constant or a
// coefficient. A value is never modified once built (every operation builds
// a new one), so bindings and results share their terms.
type aval struct {
	val         int64
	terms       []term // affine coefficients, one per variable; a term may be zero
	deps, tdeps ParamMask
	dataDep     bool
}

// term is one variable's coefficient in an affine value.
type term struct {
	name string
	c    int64
}

func (v aval) known() bool { return !v.dataDep && len(v.terms) == 0 }

// coeff returns the coefficient of the named variable.
func (v aval) coeff(name string) int64 {
	for _, t := range v.terms {
		if t.name == name {
			return t.c
		}
	}
	return 0
}

var unknown = aval{dataDep: true}

// symval is a uniform-but-unknown value: the same for every thread (so not
// divergence-inducing) but not a usable constant (so not known). Encoded as
// an affine term on a reserved symbol no lane or loop variable ever uses.
var symval = aval{terms: []term{{"$sym", 1}}}

// variable is the abstract value of a lane or loop variable itself.
func variable(name string) aval { return aval{terms: []term{{name, 1}}} }

// add returns x + sign*y, dropping the terms that cancel to zero. Which
// terms survive depends on the coefficients, so a sum of affine values
// observes them: a launch whose terms cancel where this one's did not (or
// the reverse) must not share its cost.
func (a *analyzer) add(x, y aval, sign int64) aval {
	out := aval{val: x.val + sign*y.val, deps: x.deps | y.deps, tdeps: x.tdeps | y.tdeps, dataDep: x.dataDep || y.dataDep}
	if len(x.terms) == 0 && len(y.terms) == 0 {
		return out
	}
	a.observe(out.tdeps)
	terms := append(make([]term, 0, len(x.terms)+len(y.terms)), x.terms...)
	for _, bt := range y.terms {
		i := 0
		for i < len(terms) && terms[i].name != bt.name {
			i++
		}
		if i == len(terms) {
			terms = append(terms, term{name: bt.name})
		}
		terms[i].c += sign * bt.c
	}
	n := 0
	for _, t := range terms {
		if t.c != 0 {
			terms[n] = t
			n++
		}
	}
	out.terms = terms[:n]
	return out
}

func mulval(a, b aval) aval {
	// Affine × constant stays affine; anything else is data-dependent for
	// stride purposes (conservative).
	if a.known() {
		a, b = b, a
	}
	if !b.known() {
		return unknown
	}
	out := aval{val: a.val * b.val, deps: a.deps | b.deps, dataDep: a.dataDep}
	if len(a.terms) > 0 {
		out.tdeps = a.tdeps | b.deps
		out.terms = make([]term, len(a.terms))
		for i, t := range a.terms {
			out.terms[i] = term{name: t.name, c: t.c * b.val}
		}
	}
	return out
}

// ctx carries the traversal context.
type ctx struct {
	mult      float64 // execution multiplicity
	divergent bool    // under data-dependent control flow
	laneVar   string  // name of the SIMD lane variable, if inside an innermost foreach
	inLoop    bool    // under a sequential loop
	loopVars  []string
	depth     int // helper-inline depth
}

// binding is one variable's abstract value in a scope.
type binding struct {
	name string
	val  aval
}

type analyzer struct {
	info   *mcpl.Info
	rep    *Report
	simd   int
	spaces map[string]mcpl.Space
	dims   map[string][]mcpl.Expr

	// vars is the scope stack, innermost binding last. Each block is a scope:
	// reads fall through to the enclosing scopes and writes land in the
	// innermost one, shadowing rather than updating an outer binding, so the
	// outer value is back when the block ends. A call starts a fresh frame
	// the callee cannot read past.
	vars  []binding
	scope int // index of the innermost scope's first binding
	frame int // index of the current call frame's first binding

	warned map[string]bool
}

// lookup returns a variable's value in the innermost scope that binds it.
func (a *analyzer) lookup(name string) (aval, bool) {
	for i := len(a.vars) - 1; i >= a.frame; i-- {
		if a.vars[i].name == name {
			return a.vars[i].val, true
		}
	}
	return aval{}, false
}

// bind sets a variable in the innermost scope.
func (a *analyzer) bind(name string, v aval) {
	for i := len(a.vars) - 1; i >= a.scope; i-- {
		if a.vars[i].name == name {
			a.vars[i].val = v
			return
		}
	}
	a.vars = append(a.vars, binding{name: name, val: v})
}

// push opens a scope; pop closes it, given what push returned.
func (a *analyzer) push() int {
	outer := a.scope
	a.scope = len(a.vars)
	return outer
}

func (a *analyzer) pop(outer int) {
	a.vars = a.vars[:a.scope]
	a.scope = outer
}

// isFloat reports whether the checker assigned a floating-point type to the
// expression; integer arithmetic is address math, not flops.
func (a *analyzer) isFloat(e mcpl.Expr) bool {
	return a.info.TypeOf(e).Kind == mcpl.KindFloat
}

// observe records that the analysis read a value computed from the
// parameters in m.
func (a *analyzer) observe(m ParamMask) { a.rep.Observed |= m }

func (a *analyzer) warn(format string, args ...any) {
	if a.warned == nil {
		a.warned = map[string]bool{}
	}
	msg := fmt.Sprintf(format, args...)
	if !a.warned[msg] {
		a.warned[msg] = true
		a.rep.Warnings = append(a.rep.Warnings, msg)
	}
}

func (a *analyzer) flops(n float64, c ctx) {
	a.rep.Flops += n * c.mult
	if c.divergent {
		a.rep.DivergentFlops += n * c.mult
	}
}

func (a *analyzer) block(b *mcpl.Block, c ctx) {
	outer := a.push()
	for _, s := range b.Stmts {
		a.stmt(s, c)
	}
	a.pop(outer)
}

// hasForeach reports whether a foreach is nested anywhere in s.
func hasForeach(s mcpl.Stmt) bool {
	switch st := s.(type) {
	case *mcpl.Foreach:
		return true
	case *mcpl.Block:
		for _, x := range st.Stmts {
			if hasForeach(x) {
				return true
			}
		}
	case *mcpl.If:
		return hasForeach(st.Then) || st.Else != nil && hasForeach(st.Else)
	case *mcpl.For:
		return hasForeach(st.Body)
	case *mcpl.While:
		return hasForeach(st.Body)
	}
	return false
}

func (a *analyzer) stmt(s mcpl.Stmt, c ctx) {
	switch st := s.(type) {
	case *mcpl.Block:
		a.block(st, c)
	case *mcpl.VarDecl:
		if st.Type.IsArray() {
			space := st.Space
			if space == mcpl.SpaceDefault {
				// Function-scope arrays are thread-private unless qualified
				// (OpenCL semantics); only parameters default to global.
				space = mcpl.SpacePrivate
			}
			a.spaces[st.Name] = space
			a.dims[st.Name] = st.Type.Dims
			if st.Space == mcpl.SpaceLocal {
				a.rep.UsesLocalMemory = true
				size := st.Type.ElemSize()
				for _, d := range st.Type.Dims {
					dv := a.eval(d, c)
					if dv.known() {
						a.observe(dv.deps)
						size *= dv.val
					} else {
						a.warn("%v: local array %s has non-constant dimension; occupancy unknown", st.Pos, st.Name)
					}
				}
				a.rep.LocalBytes += size
			}
			return
		}
		if st.Init != nil {
			a.bind(st.Name, a.eval(st.Init, c))
		} else {
			a.bind(st.Name, aval{})
		}
	case *mcpl.Assign:
		rhs := a.eval(st.Rhs, c)
		switch lhs := st.Lhs.(type) {
		case *mcpl.Ident:
			if st.Op == "=" {
				a.bind(lhs.Name, rhs)
			} else {
				old, ok := a.lookup(lhs.Name)
				if !ok {
					old = unknown
				}
				a.bind(lhs.Name, a.combineOp(st.Op, old, rhs))
				if a.isFloat(st.Lhs) {
					a.flops(1, c) // compound assign implies an arithmetic op
				}
			}
		case *mcpl.Index:
			a.access(lhs, c, true)
			if st.Op != "=" {
				a.access(lhs, c, false) // read-modify-write reads too
				if a.isFloat(st.Lhs) {
					a.flops(1, c)
				}
			}
		}
	case *mcpl.IncDec:
		if lhs, ok := st.Lhs.(*mcpl.Ident); ok {
			old, ok := a.lookup(lhs.Name)
			if !ok {
				old = unknown
			}
			a.bind(lhs.Name, a.add(old, aval{val: 1}, incSign(st.Op)))
		}
	case *mcpl.If:
		cond := a.eval(st.Cond, c)
		cc := c
		if cond.dataDep {
			cc.divergent = true
			cc.mult = c.mult * 0.5
		}
		a.block(st.Then, cc)
		if st.Else != nil {
			a.stmt(st.Else, cc)
		}
	case *mcpl.For:
		outer := a.push()
		var loopVar string
		if st.Init != nil {
			a.stmt(st.Init, c)
			if vd, ok := st.Init.(*mcpl.VarDecl); ok {
				loopVar = vd.Name
			}
		}
		trips := a.tripCount(st, c)
		cc := c
		cc.mult = c.mult * trips
		cc.inLoop = cc.inLoop || trips > 1
		if loopVar != "" {
			cc.loopVars = append(append([]string{}, c.loopVars...), loopVar)
			a.bind(loopVar, variable(loopVar))
		}
		if st.Cond != nil {
			a.eval(st.Cond, cc)
		}
		a.block(st.Body, cc)
		a.pop(outer)
	case *mcpl.While:
		trips := float64(8)
		if st.Expect != nil {
			ev := a.eval(st.Expect, c)
			if ev.known() {
				a.observe(ev.deps)
				trips = float64(ev.val)
			}
		} else {
			a.warn("%v: while loop without @expect hint; assuming %d iterations", st.Pos, 8)
		}
		cc := c
		cc.mult = c.mult * trips
		cc.inLoop = true
		cond := a.eval(st.Cond, c)
		if cond.dataDep {
			cc.divergent = true
		}
		a.block(st.Body, cc)
	case *mcpl.Foreach:
		bound := a.eval(st.Bound, c)
		extent := float64(1)
		if bound.known() {
			a.observe(bound.deps)
			extent = float64(bound.val)
		} else {
			a.warn("%v: foreach bound %s is not a launch constant", st.Pos, mcpl.ExprString(st.Bound))
		}
		if extent < 1 {
			extent = 1
		}
		cc := c
		cc.mult = c.mult * extent
		a.rep.ThreadParallelism *= extent
		outer := a.push()
		a.bind(st.Var, variable(st.Var))
		if !hasForeach(st.Body) {
			cc.laneVar = st.Var
		}
		a.block(st.Body, cc)
		a.pop(outer)
	case *mcpl.Return:
		if st.Value != nil {
			a.eval(st.Value, c)
		}
	case *mcpl.ExprStmt:
		a.eval(st.X, c)
	case *mcpl.Barrier:
		// Synchronization cost is folded into the compute efficiency.
	}
}

func incSign(op string) int64 {
	if op == "--" {
		return -1
	}
	return 1
}

func (a *analyzer) combineOp(op string, old, rhs aval) aval {
	switch op {
	case "+=":
		return a.add(old, rhs, 1)
	case "-=":
		return a.add(old, rhs, -1)
	case "*=":
		return mulval(old, rhs)
	default:
		return unknown
	}
}

// tripCount estimates the iterations of a for loop.
func (a *analyzer) tripCount(st *mcpl.For, c ctx) float64 {
	if st.Expect != nil {
		ev := a.eval(st.Expect, c)
		if ev.known() {
			a.observe(ev.deps)
			return float64(ev.val)
		}
	}
	// Pattern: init `v = A`, cond `v < B` (or <=), post v++/v+=s.
	var initVal aval
	hasInit := false
	var name string
	switch in := st.Init.(type) {
	case *mcpl.VarDecl:
		name = in.Name
		if in.Init != nil {
			initVal, hasInit = a.eval(in.Init, c), true
		}
	case *mcpl.Assign:
		if id, ok := in.Lhs.(*mcpl.Ident); ok && in.Op == "=" {
			name = id.Name
			initVal, hasInit = a.eval(in.Rhs, c), true
		}
	}
	step := int64(0)
	switch po := st.Post.(type) {
	case *mcpl.IncDec:
		if id, ok := po.Lhs.(*mcpl.Ident); ok && id.Name == name {
			step = incSign(po.Op)
		}
	case *mcpl.Assign:
		if id, ok := po.Lhs.(*mcpl.Ident); ok && id.Name == name {
			rv := a.eval(po.Rhs, c)
			if rv.known() {
				a.observe(rv.deps)
				switch po.Op {
				case "+=":
					step = rv.val
				case "-=":
					step = -rv.val
				}
			}
		}
	}
	if cond, ok := st.Cond.(*mcpl.Binary); ok && hasInit && initVal.known() && step != 0 {
		if id, ok := cond.L.(*mcpl.Ident); ok && id.Name == name {
			bound := a.eval(cond.R, c)
			if bound.known() {
				a.observe(initVal.deps | bound.deps)
				var n int64
				switch cond.Op {
				case "<":
					n = ceilDiv(bound.val-initVal.val, step)
				case "<=":
					n = ceilDiv(bound.val-initVal.val+1, step)
				case ">":
					n = ceilDiv(initVal.val-bound.val, -step)
				case ">=":
					n = ceilDiv(initVal.val-bound.val+1, -step)
				}
				if n < 0 {
					n = 0
				}
				return float64(n)
			}
		}
	}
	a.warn("%v: cannot determine loop trip count; assuming %d (add @expect)", st.Pos, 8)
	return 8
}

func ceilDiv(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	if (a > 0) == (b > 0) {
		return (a + b - 1) / b
	}
	return a / b
}

// access records a global-memory access site.
func (a *analyzer) access(x *mcpl.Index, c ctx, write bool) {
	name := x.Array.(*mcpl.Ident).Name
	space := a.spaces[name]
	if space == mcpl.SpaceLocal || space == mcpl.SpacePrivate {
		return // on-chip
	}
	// Stride of the flattened address with respect to the lane variable.
	dims := a.dims[name]
	var sbuf [4]int64 // no allocation up to four dimensions
	strides := sbuf[:]
	if len(dims) > len(sbuf) {
		strides = make([]int64, len(dims))
	}
	s := int64(1)
	ok := true
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		dv := a.eval(dims[i], c)
		if dv.known() {
			a.observe(dv.deps)
			s *= dv.val
		} else {
			ok = false
		}
	}
	class := AccessUniform
	laneCoeff := int64(0)
	dep := false
	loopFree := true
	for i, sub := range x.Args {
		sv := a.eval(sub, c)
		a.observe(sv.tdeps) // the class reads coefficients, never the constant
		if sv.dataDep {
			dep = true
		}
		if c.laneVar != "" {
			laneCoeff += sv.coeff(c.laneVar) * strides[i]
		}
		for _, lv := range c.loopVars {
			if sv.coeff(lv) != 0 {
				loopFree = false
			}
		}
	}
	switch {
	case dep:
		class = AccessGathered
	case laneCoeff == 0:
		class = AccessUniform
	case laneCoeff == 1 || laneCoeff == -1:
		class = AccessCoalesced
	default:
		class = AccessStrided
	}
	if !ok {
		// Unknown dims: be conservative about strides but do not misreport
		// uniform as gathered.
		if class == AccessStrided {
			class = AccessGathered
		}
	}
	bytes := 4 * c.mult
	switch class {
	case AccessUniform:
		// Same address across the warp: served once per warp by broadcast
		// or cache.
		bytes /= float64(a.simd)
		a.rep.UniformBytes += bytes
	case AccessCoalesced:
		a.rep.CoalescedBytes += bytes
	case AccessStrided:
		a.rep.StridedBytes += bytes
	case AccessGathered:
		a.rep.GatheredBytes += bytes
	}
	a.rep.Accesses = append(a.rep.Accesses, Access{
		Array:    name,
		Pos:      x.Pos,
		Write:    write,
		Bytes:    bytes,
		Class:    class,
		InLoop:   c.inLoop,
		LoopFree: loopFree,
	})
}

var builtinFlops = map[string]float64{
	"sqrt": 1, "rsqrt": 2, "fabs": 1, "floor": 1,
	"exp": 8, "log": 8, "sin": 8, "cos": 8, "tan": 10, "pow": 16,
	"fmin": 1, "fmax": 1, "clamp": 2,
	"abs": 0, "min": 0, "max": 0,
}

// eval abstractly evaluates an expression, counting flops and classifying
// memory accesses as a side effect.
func (a *analyzer) eval(x mcpl.Expr, c ctx) aval {
	switch v := x.(type) {
	case *mcpl.IntLit:
		return aval{val: v.Value}
	case *mcpl.FloatLit:
		return symval // uniform across threads; never feeds address math
	case *mcpl.BoolLit:
		return aval{}
	case *mcpl.Ident:
		if av, ok := a.lookup(v.Name); ok {
			return av
		}
		return unknown
	case *mcpl.Unary:
		xv := a.eval(v.X, c)
		if v.Op == "-" {
			if a.isFloat(v) {
				a.flops(0.5, c) // negation is cheap; count fractionally
			}
			return mulval(xv, aval{val: -1})
		}
		return xv
	case *mcpl.Cast:
		return a.eval(v.X, c)
	case *mcpl.Cond:
		cv := a.eval(v.C, c)
		cc := c
		if cv.dataDep {
			cc.divergent = true
			cc.mult = c.mult * 0.5
		}
		t := a.eval(v.T, cc)
		f := a.eval(v.F, cc)
		if t.known() && f.known() {
			a.observe(t.deps | f.deps)
			if t.val == f.val {
				return t
			}
		}
		return aval{dataDep: cv.dataDep || t.dataDep || f.dataDep}
	case *mcpl.Binary:
		l := a.eval(v.L, c)
		r := a.eval(v.R, c)
		switch v.Op {
		case "+", "-", "*", "/":
			if a.isFloat(v) {
				a.flops(1, c)
			}
		}
		switch v.Op {
		case "+":
			return a.add(l, r, 1)
		case "-":
			return a.add(l, r, -1)
		case "*":
			return mulval(l, r)
		case "/":
			if l.known() && r.known() {
				a.observe(r.deps) // a zero divisor does not fold
				if r.val != 0 {
					return aval{val: l.val / r.val, deps: l.deps | r.deps}
				}
			}
			return aval{dataDep: l.dataDep || r.dataDep || len(l.terms) > 0}
		case "%":
			if l.known() && r.known() {
				a.observe(r.deps)
				if r.val != 0 {
					return aval{val: l.val % r.val, deps: l.deps | r.deps}
				}
			}
			return unknown
		case "<", "<=", ">", ">=", "==", "!=":
			// Comparisons against loop/lane affine values are structured
			// control (boundary guards); data dependence taints.
			return aval{dataDep: l.dataDep || r.dataDep}
		case "&&", "||":
			return aval{dataDep: l.dataDep || r.dataDep}
		default: // bit ops
			if l.known() && r.known() {
				deps := l.deps | r.deps
				switch v.Op {
				case "<<":
					return aval{val: l.val << uint(r.val&63), deps: deps}
				case ">>":
					return aval{val: l.val >> uint(r.val&63), deps: deps}
				case "&":
					return aval{val: l.val & r.val, deps: deps}
				case "|":
					return aval{val: l.val | r.val, deps: deps}
				case "^":
					return aval{val: l.val ^ r.val, deps: deps}
				}
			}
			return aval{dataDep: l.dataDep || r.dataDep || len(l.terms)+len(r.terms) > 0}
		}
	case *mcpl.Index:
		a.access(v, c, false)
		return unknown // loaded data is data-dependent
	case *mcpl.Call:
		return a.call(v, c)
	default:
		return unknown
	}
}

// call counts a builtin's flops or inlines a helper function's body in a
// fresh frame that binds its scalar parameters to the argument values.
func (a *analyzer) call(v *mcpl.Call, c ctx) aval {
	var buf [8]aval
	args := buf[:0]
	for _, ar := range v.Args {
		args = append(args, a.eval(ar, c))
	}
	if fl, ok := builtinFlops[v.Name]; ok {
		a.flops(fl, c)
		return unknown
	}
	f := a.info.Prog.Func(v.Name)
	if f == nil || c.depth > 6 {
		if c.depth > 6 {
			a.warn("%v: call to %s exceeds inline depth; cost underestimated", v.Pos, v.Name)
		}
		return unknown
	}
	cc := c
	cc.depth++
	frame, scope := a.frame, a.scope
	a.frame, a.scope = len(a.vars), len(a.vars)
	for i, prm := range f.Params {
		if prm.Type.IsArray() {
			// Map the callee array name to the caller's array metadata.
			if id, ok := v.Args[i].(*mcpl.Ident); ok {
				a.spaces[prm.Name] = a.spaces[id.Name]
				a.dims[prm.Name] = a.dims[id.Name]
			}
			continue
		}
		a.bind(prm.Name, args[i])
	}
	a.block(f.Body, cc)
	a.vars = a.vars[:a.frame]
	a.frame, a.scope = frame, scope
	return unknown
}
