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

// BlockExtents returns the per-dimension work-group extents used when a
// nest of `dims` consecutive mapped foreach statements is decomposed. The
// products stay at 256 work-items, a portable default across the devices in
// the catalog (AMD's limit is 256).
func BlockExtents(dims int) []int64 {
	switch dims {
	case 1:
		return []int64{256}
	case 2:
		return []int64{16, 16}
	default:
		ext := make([]int64, dims)
		for i := range ext {
			ext[i] = 4
		}
		ext[0] = 16
		return ext
	}
}

// Translate rewrites the named kernel of prog for the target level and
// returns a new program (helpers are copied unchanged, other kernels are
// dropped). It first runs ValidateLevel for the target and returns its
// error, so the rewrite itself cannot fail.
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
	nk.Level = target.Name
	t := &translator{target: target}
	nk.Body = t.block(nk.Body, 0)
	out.Funcs = append(out.Funcs, nk)

	if _, err := mcpl.Check(out); err != nil {
		return nil, fmt.Errorf("translate: internal error, translated kernel does not check: %w", err)
	}
	return out, nil
}

type translator struct {
	target *hdl.Level
	fresh  int
}

func (t *translator) freshName(base string) string {
	t.fresh++
	return fmt.Sprintf("_%s%d", base, t.fresh)
}

func (t *translator) block(b *mcpl.Block, depth int) *mcpl.Block {
	nb := &mcpl.Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		nb.Stmts = append(nb.Stmts, t.stmt(s, depth))
	}
	return nb
}

func (t *translator) stmt(s mcpl.Stmt, depth int) mcpl.Stmt {
	switch st := s.(type) {
	case *mcpl.Foreach:
		return t.foreach(st, depth)
	case *mcpl.Block:
		return t.block(st, depth)
	case *mcpl.If:
		ni := &mcpl.If{Cond: st.Cond, Then: t.block(st.Then, depth), Pos: st.Pos}
		if st.Else != nil {
			ni.Else = t.stmt(st.Else, depth)
		}
		return ni
	case *mcpl.For:
		return &mcpl.For{Init: st.Init, Cond: st.Cond, Post: st.Post, Body: t.block(st.Body, depth), Expect: st.Expect, Pos: st.Pos}
	case *mcpl.While:
		return &mcpl.While{Cond: st.Cond, Body: t.block(st.Body, depth), Expect: st.Expect, Pos: st.Pos}
	default:
		return s
	}
}

// nestDepth counts the chain of foreach statements that starts at st and
// whose units all have mappings at the target level: the dimensionality of
// the decomposed ND-range.
func (t *translator) nestDepth(st *mcpl.Foreach) int {
	d := 0
	cur := st
	for cur != nil && t.target.Mapping(cur.Unit) != nil {
		d++
		cur = directChildForeach(cur.Body)
	}
	return d
}

func directChildForeach(b *mcpl.Block) *mcpl.Foreach {
	if len(b.Stmts) == 1 {
		if fe, ok := b.Stmts[0].(*mcpl.Foreach); ok {
			return fe
		}
	}
	return nil
}

// foreach rewrites one foreach. ValidateLevel has checked that its unit is
// defined at the target or maps to exactly two units there.
func (t *translator) foreach(st *mcpl.Foreach, depth int) mcpl.Stmt {
	mapping := t.target.Mapping(st.Unit)
	if mapping == nil {
		return &mcpl.Foreach{Var: st.Var, Bound: st.Bound, Unit: st.Unit, Body: t.block(st.Body, depth), Pos: st.Pos}
	}
	outerUnit, innerUnit := mapping[0], mapping[1]

	// Pick per-dimension extent based on the dimensionality of the nest
	// this foreach starts (or continues).
	dims := t.nestDepth(st)
	if dims < 1 {
		dims = 1
	}
	ext := BlockExtents(dims)
	bs := ext[0]
	if depth > 0 && depth < len(ext) {
		bs = ext[depth]
	}
	if depth >= len(ext) {
		bs = ext[len(ext)-1]
	}
	if u := t.target.LookupPar(innerUnit); u != nil && u.Max > 0 && bs > u.Max {
		bs = u.Max
	}

	body := t.block(st.Body, depth+1)

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
// hardware-description level, and that the target level (the declared level
// or a descendant) maps each unit it decomposes onto exactly two units. A
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
				if m := target.Mapping(st.Unit); m != nil && len(m) != 2 && mappingErr == nil {
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
					if blk, ok := st.Else.(*mcpl.Block); ok {
						if err := walk(blk); err != nil {
							return err
						}
					} else if ifs, ok := st.Else.(*mcpl.If); ok {
						if err := walk(&mcpl.Block{Stmts: []mcpl.Stmt{ifs}}); err != nil {
							return err
						}
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
