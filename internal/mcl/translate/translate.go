// Package translate implements MCL's translation between abstraction
// levels (Sec. III-A): a kernel written for the programming abstractions of
// hardware description x is rewritten to the abstractions of a descendant
// level y. The mapping rules come from the hardware descriptions themselves
// (e.g. on a GPU, perfect's `threads` decompose into `blocks` of `threads`).
// As in the paper, the translation applies no optimizations — it only makes
// the mapping between program and hardware more precise.
package translate

import (
	"fmt"

	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
)

// Nest returns the kernel's leading foreach nest, outermost first: the
// first foreach among the body's statements, then the first foreach among
// that foreach's body statements, and so on. Its foreachs are the ND-range
// dimensions of a launch: Translate sizes their work-groups and
// codegen.Compiled.LaunchConfig prices them.
func Nest(f *mcpl.Func) []*mcpl.Foreach {
	var nest []*mcpl.Foreach
	for b := f.Body; ; {
		var fe *mcpl.Foreach
		for _, s := range b.Stmts {
			if x, ok := s.(*mcpl.Foreach); ok {
				fe = x
				break
			}
		}
		if fe == nil {
			return nest
		}
		nest = append(nest, fe)
		b = fe.Body
	}
}

// WorkgroupLimit reads a level's work-group size bound from its innermost
// parallelism unit (threads on GPUs, vectors on MIC/CPU). 0 means unlimited
// (the root's idealized threads).
func WorkgroupLimit(lv *hdl.Level) int64 {
	if u := lv.LookupPar("threads"); u != nil && u.Max > 0 {
		return u.Max
	}
	if u := lv.LookupPar("vectors"); u != nil && u.Max > 0 {
		return u.Max
	}
	return 0
}

// Extents returns the default per-dimension work-group extents of a nest of
// dims mapped foreachs under a work-group limit (0 = unlimited): 256 for one
// dimension, 16x16 for two, 16x4x4... beyond, a portable product across the
// devices in the catalog (AMD's limit is 256), shrunk outermost-first until
// the product fits the limit.
func Extents(dims int, limit int64) []int64 {
	ext := make([]int64, dims)
	p := int64(1)
	for i := range ext {
		switch {
		case dims == 1:
			ext[i] = 256
		case dims == 2 || i == 0:
			ext[i] = 16
		default:
			ext[i] = 4
		}
		p *= ext[i]
	}
	for i := 0; limit > 0 && p > limit && i < dims; i++ {
		rest := p / ext[i]
		ext[i] = max(1, limit/rest)
		p = rest * ext[i]
	}
	return ext
}

// mapping returns how target decomposes unit for a kernel written at level
// source: the mapping declared on the nearest level strictly below source,
// walking from target up. A mapping declared at source or above it describes
// units the kernel already uses, so it does not apply.
func mapping(target *hdl.Level, source, unit string) []string {
	for lv := target; lv != nil && lv.Name != source; lv = lv.Parent {
		if m, ok := lv.Mappings[unit]; ok {
			return m
		}
	}
	return nil
}

// Translate rewrites the named kernel of prog for the target level and
// returns a new program (helpers are copied unchanged, other kernels are
// dropped). It first runs ValidateLevel for the target and returns its
// error, so the rewrite itself cannot fail. The k-th mapped foreach of the
// kernel's leading nest becomes blocks of Extents(n, WorkgroupLimit)[k]
// items, n the nest's mapped foreachs; any other mapped foreach is
// decomposed as a 1-D nest.
func Translate(prog *mcpl.Program, kernel string, target *hdl.Level) (*mcpl.Program, error) {
	if err := ValidateLevel(prog, kernel, target); err != nil {
		return nil, err
	}
	out := &mcpl.Program{}
	for _, f := range prog.Funcs {
		if !f.IsKernel() {
			out.Funcs = append(out.Funcs, mcpl.CloneFunc(f))
		}
	}
	nk := mcpl.CloneFunc(prog.Kernel(kernel))
	t := &translator{target: target, source: nk.Level, extent: map[*mcpl.Foreach]int64{}}
	var mapped []*mcpl.Foreach
	for _, fe := range Nest(nk) {
		if mapping(target, nk.Level, fe.Unit) != nil {
			mapped = append(mapped, fe)
		}
	}
	for k, e := range Extents(len(mapped), WorkgroupLimit(target)) {
		t.extent[mapped[k]] = e
	}
	nk.Level = target.Name
	nk.Body = t.block(nk.Body)
	out.Funcs = append(out.Funcs, nk)

	if _, err := mcpl.Check(out); err != nil {
		return nil, fmt.Errorf("translate: internal error, translated kernel does not check: %w", err)
	}
	return out, nil
}

type translator struct {
	target *hdl.Level
	source string                  // the kernel's own level
	extent map[*mcpl.Foreach]int64 // work-group extent of each mapped foreach of the leading nest
	fresh  int
}

func (t *translator) freshName(base string) string {
	t.fresh++
	return fmt.Sprintf("_%s%d", base, t.fresh)
}

func (t *translator) block(b *mcpl.Block) *mcpl.Block {
	nb := &mcpl.Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		nb.Stmts = append(nb.Stmts, t.stmt(s))
	}
	return nb
}

func (t *translator) stmt(s mcpl.Stmt) mcpl.Stmt {
	switch st := s.(type) {
	case *mcpl.Foreach:
		return t.foreach(st)
	case *mcpl.Block:
		return t.block(st)
	case *mcpl.If:
		ni := &mcpl.If{Cond: st.Cond, Then: t.block(st.Then), Pos: st.Pos}
		if st.Else != nil {
			ni.Else = t.stmt(st.Else)
		}
		return ni
	case *mcpl.For:
		return &mcpl.For{Init: st.Init, Cond: st.Cond, Post: st.Post, Body: t.block(st.Body), Expect: st.Expect, Pos: st.Pos}
	case *mcpl.While:
		return &mcpl.While{Cond: st.Cond, Body: t.block(st.Body), Expect: st.Expect, Pos: st.Pos}
	default:
		return s
	}
}

// foreach rewrites one foreach. ValidateLevel has checked that its unit is
// defined at the target or maps to exactly two units there.
func (t *translator) foreach(st *mcpl.Foreach) mcpl.Stmt {
	m := mapping(t.target, t.source, st.Unit)
	if m == nil {
		return &mcpl.Foreach{Var: st.Var, Bound: st.Bound, Unit: st.Unit, Body: t.block(st.Body), Pos: st.Pos}
	}
	outerUnit, innerUnit := m[0], m[1]
	bs, ok := t.extent[st]
	if !ok {
		bs = Extents(1, WorkgroupLimit(t.target))[0]
	}

	body := t.block(st.Body)

	pos := st.Pos
	bVar := t.freshName("b")
	tVar := t.freshName("t")
	bsLit := &mcpl.IntLit{Value: bs, Pos: pos}
	// numBlocks = (bound + bs - 1) / bs
	numBlocks := &mcpl.Binary{
		Op: "/",
		L: &mcpl.Binary{Op: "+", L: mcpl.CloneExpr(st.Bound),
			R: &mcpl.IntLit{Value: bs - 1, Pos: pos}, Pos: pos},
		R:   bsLit,
		Pos: pos,
	}
	// int i = b*bs + t; if (i < bound) { body }
	recon := &mcpl.VarDecl{
		Name: st.Var,
		Type: mcpl.Type{Kind: mcpl.KindInt},
		Init: &mcpl.Binary{
			Op:  "+",
			L:   &mcpl.Binary{Op: "*", L: &mcpl.Ident{Name: bVar, Pos: pos}, R: &mcpl.IntLit{Value: bs, Pos: pos}, Pos: pos},
			R:   &mcpl.Ident{Name: tVar, Pos: pos},
			Pos: pos,
		},
		Pos: pos,
	}
	guard := &mcpl.If{
		Cond: &mcpl.Binary{Op: "<", L: &mcpl.Ident{Name: st.Var, Pos: pos}, R: mcpl.CloneExpr(st.Bound), Pos: pos},
		Then: body,
		Pos:  pos,
	}
	inner := &mcpl.Foreach{
		Var:   tVar,
		Bound: &mcpl.IntLit{Value: bs, Pos: pos},
		Unit:  innerUnit,
		Body:  &mcpl.Block{Stmts: []mcpl.Stmt{recon, guard}, Pos: pos},
		Pos:   pos,
	}
	outer := &mcpl.Foreach{
		Var:   bVar,
		Bound: numBlocks,
		Unit:  outerUnit,
		Body:  &mcpl.Block{Stmts: []mcpl.Stmt{inner}, Pos: pos},
		Pos:   pos,
	}
	return outer
}

// ValidateLevel is MCL's level checker, run before translation or code
// generation. In one walk over the kernel it checks that the kernel only
// uses parallelism units and memory spaces defined by its declared
// hardware-description level, and that each unit the target level (the
// declared level or a descendant) decomposes, by a mapping declared below
// the declared level, maps onto exactly two units. A
// level error is reported ahead of a mapping error anywhere in the kernel.
// A unit defined at the declared level is defined at every descendant, as
// levels inherit their ancestors' units, so the target needs no unit check
// of its own.
func ValidateLevel(prog *mcpl.Program, kernel string, target *hdl.Level) error {
	f := prog.Kernel(kernel)
	if f == nil {
		return fmt.Errorf("translate: kernel %q not found", kernel)
	}
	lv := target
	for lv != nil && lv.Name != f.Level {
		lv = lv.Parent
	}
	if lv == nil {
		return fmt.Errorf("translate: kernel %s is written for level %q, which is not an ancestor of %q",
			kernel, f.Level, target.Name)
	}
	var mappingErr error
	var walk func(b *mcpl.Block) error
	walk = func(b *mcpl.Block) error {
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *mcpl.Foreach:
				if lv.LookupPar(st.Unit) == nil {
					return fmt.Errorf("%v: parallelism unit %q is not defined by hardware description %q",
						st.Pos, st.Unit, lv.Name)
				}
				if m := mapping(target, f.Level, st.Unit); m != nil && len(m) != 2 && mappingErr == nil {
					mappingErr = fmt.Errorf("translate: unsupported mapping %v for unit %q", m, st.Unit)
				}
				if err := walk(st.Body); err != nil {
					return err
				}
			case *mcpl.VarDecl:
				if st.Space != mcpl.SpaceDefault {
					if lv.LookupMem(st.Space.String()) == nil {
						return fmt.Errorf("%v: memory space %q is not defined by hardware description %q",
							st.Pos, st.Space, lv.Name)
					}
				}
			case *mcpl.Block:
				if err := walk(st); err != nil {
					return err
				}
			case *mcpl.If:
				if err := walk(st.Then); err != nil {
					return err
				}
				if st.Else != nil {
					if err := walk(&mcpl.Block{Stmts: []mcpl.Stmt{st.Else}}); err != nil {
						return err
					}
				}
			case *mcpl.For:
				if err := walk(st.Body); err != nil {
					return err
				}
			case *mcpl.While:
				if err := walk(st.Body); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(f.Body); err != nil {
		return err
	}
	return mappingErr
}
