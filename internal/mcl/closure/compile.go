package closure

import (
	"fmt"
	"math"
	"sync"

	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

func unsupported(format string, args ...any) error {
	return fmt.Errorf("closure: "+format, args...)
}

// Compile lowers the named kernel of a checked program into a tree of
// slot-indexed Go closures. The result is immutable and safe for concurrent
// Run. Helper functions reachable from the kernel are compiled on demand
// (recursion included).
func Compile(prog *mcpl.Program, kernel string) (*Kernel, error) {
	f := prog.Kernel(kernel)
	if f == nil {
		return nil, fmt.Errorf("closure: kernel %q not found", kernel)
	}
	c := &comp{prog: prog, funcs: map[string]*cfunc{}}
	cf, err := c.compileFunc(f)
	if err != nil {
		return nil, err
	}
	return &Kernel{prog: prog, fn: f, entry: cf}, nil
}

// slotRef names one variable's home: a kind-specific bank and an index.
type slotRef struct {
	kind  mcpl.BasicKind
	array bool
	idx   int
}

type symInfo struct {
	ref slotRef
	typ mcpl.Type
}

// cscope is the compile-time scope chain. boundary marks the body scope of
// a barrier-synchronized (parallel) foreach: assignments that resolve
// through a boundary target outer scalars, which parallel iterations cannot
// share (each runs in a private frame copy), so such programs are rejected.
type cscope struct {
	parent   *cscope
	boundary bool
	vars     map[string]symInfo
}

func newScope(parent *cscope) *cscope {
	return &cscope{parent: parent, vars: map[string]symInfo{}}
}

func (s *cscope) lookup(name string) (symInfo, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, ok := sc.vars[name]; ok {
			return v, true
		}
	}
	return symInfo{}, false
}

// lookupAssign resolves an assignment target and reports whether the
// resolution crossed a parallel-foreach boundary.
func (s *cscope) lookupAssign(name string) (sym symInfo, crossed, ok bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if v, found := sc.vars[name]; found {
			return v, crossed, true
		}
		if sc.boundary {
			crossed = true
		}
	}
	return symInfo{}, crossed, false
}

// cfunc is one compiled function. params/lay/dimChecks are populated before
// the body compiles so recursive calls can reference them; body is read at
// run time through the cfunc pointer.
type cfunc struct {
	fn        *mcpl.Func
	lay       *layout
	params    []slotRef
	dimChecks []dimCheck
	body      stmtFn
}

// dimCheck validates one declared array dimension against the runtime
// argument, evaluated in the callee frame (dimension expressions may
// reference earlier parameters).
type dimCheck struct {
	name string
	slot int
	dim  int
	want intFn
	expr string
}

type comp struct {
	prog  *mcpl.Program
	funcs map[string]*cfunc
}

func (c *comp) fnFor(name string) (*cfunc, error) {
	if cf, ok := c.funcs[name]; ok {
		return cf, nil
	}
	f := c.prog.Func(name)
	if f == nil {
		return nil, fmt.Errorf("closure: undefined function %s", name)
	}
	return c.compileFunc(f)
}

func (c *comp) compileFunc(f *mcpl.Func) (*cfunc, error) {
	cf := &cfunc{fn: f, lay: newLayout()}
	c.funcs[f.Name] = cf
	fc := &fcomp{c: c, cf: cf}
	sc := newScope(nil)
	for _, prm := range f.Params {
		ref, err := fc.alloc(prm.Type, prm.Pos)
		if err != nil {
			return nil, err
		}
		cf.params = append(cf.params, ref)
		sc.vars[prm.Name] = symInfo{ref: ref, typ: prm.Type}
	}
	for i, prm := range f.Params {
		if !prm.Type.IsArray() {
			continue
		}
		for d, de := range prm.Type.Dims {
			wf, err := fc.intExpr(de, sc)
			if err != nil {
				return nil, err
			}
			cf.dimChecks = append(cf.dimChecks, dimCheck{
				name: prm.Name, slot: cf.params[i].idx, dim: d,
				want: wf, expr: mcpl.ExprString(de),
			})
		}
	}
	// The body shares the parameter scope, as in the checker and interpreter.
	body, err := fc.blockShared(f.Body, sc)
	if err != nil {
		return nil, err
	}
	cf.body = body
	return cf, nil
}

// fcomp compiles one function: it owns the slot allocator of cf's layout.
type fcomp struct {
	c  *comp
	cf *cfunc
}

func (fc *fcomp) alloc(t mcpl.Type, pos mcpl.Pos) (slotRef, error) {
	lay := fc.cf.lay
	if t.IsArray() {
		if t.Kind != mcpl.KindInt && t.Kind != mcpl.KindFloat {
			return slotRef{}, unsupported("%v: %s array", pos, t)
		}
		r := slotRef{kind: t.Kind, array: true, idx: lay.nA}
		lay.nA++
		return r, nil
	}
	r := slotRef{kind: t.Kind}
	switch t.Kind {
	case mcpl.KindInt:
		r.idx = lay.nI
		lay.nI++
	case mcpl.KindFloat:
		r.idx = lay.nF
		lay.nF++
	case mcpl.KindBool:
		r.idx = lay.nB
		lay.nB++
	default:
		return slotRef{}, fmt.Errorf("closure: %v: cannot allocate %s variable", pos, t)
	}
	return r, nil
}

// ---------- type inference (over the already-checked program) ----------

func (fc *fcomp) typeOf(e mcpl.Expr, sc *cscope) (mcpl.Type, error) {
	switch x := e.(type) {
	case *mcpl.IntLit:
		return mcpl.Type{Kind: mcpl.KindInt}, nil
	case *mcpl.FloatLit:
		return mcpl.Type{Kind: mcpl.KindFloat}, nil
	case *mcpl.BoolLit:
		return mcpl.Type{Kind: mcpl.KindBool}, nil
	case *mcpl.Ident:
		sym, ok := sc.lookup(x.Name)
		if !ok {
			return mcpl.Type{}, unsupported("%v: undefined variable %s", x.Pos, x.Name)
		}
		return sym.typ, nil
	case *mcpl.Unary:
		if x.Op == "!" {
			return mcpl.Type{Kind: mcpl.KindBool}, nil
		}
		if x.Op == "~" {
			return mcpl.Type{Kind: mcpl.KindInt}, nil
		}
		return fc.typeOf(x.X, sc)
	case *mcpl.Cast:
		return x.To, nil
	case *mcpl.Cond:
		tt, err := fc.typeOf(x.T, sc)
		if err != nil {
			return mcpl.Type{}, err
		}
		ft, err := fc.typeOf(x.F, sc)
		if err != nil {
			return mcpl.Type{}, err
		}
		return joinNumeric(tt, ft), nil
	case *mcpl.Binary:
		switch x.Op {
		case "+", "-", "*", "/":
			lt, err := fc.typeOf(x.L, sc)
			if err != nil {
				return mcpl.Type{}, err
			}
			rt, err := fc.typeOf(x.R, sc)
			if err != nil {
				return mcpl.Type{}, err
			}
			return joinNumeric(lt, rt), nil
		case "%", "<<", ">>", "&", "|", "^":
			return mcpl.Type{Kind: mcpl.KindInt}, nil
		default: // comparisons and logicals
			return mcpl.Type{Kind: mcpl.KindBool}, nil
		}
	case *mcpl.Index:
		id := x.Array.(*mcpl.Ident)
		sym, ok := sc.lookup(id.Name)
		if !ok {
			return mcpl.Type{}, unsupported("%v: undefined array %s", x.Pos, id.Name)
		}
		return sym.typ.Elem(), nil
	case *mcpl.Call:
		if b, ok := mcpl.Builtins[x.Name]; ok {
			return mcpl.Type{Kind: b.Return}, nil
		}
		f := fc.c.prog.Func(x.Name)
		if f == nil {
			return mcpl.Type{}, unsupported("%v: undefined function %s", x.Pos, x.Name)
		}
		return f.Return, nil
	default:
		return mcpl.Type{}, unsupported("%v: unknown expression %T", e.Position(), e)
	}
}

func joinNumeric(a, b mcpl.Type) mcpl.Type {
	if a.Kind == mcpl.KindFloat || b.Kind == mcpl.KindFloat {
		return mcpl.Type{Kind: mcpl.KindFloat}
	}
	return mcpl.Type{Kind: mcpl.KindInt}
}

// ---------- statements ----------

func nopStmt(*frame) ctrl { return ctrlNext }

func seq(fns []stmtFn) stmtFn {
	switch len(fns) {
	case 0:
		return nopStmt
	case 1:
		return fns[0]
	case 2:
		a, b := fns[0], fns[1]
		return func(f *frame) ctrl {
			if a(f) == ctrlReturn {
				return ctrlReturn
			}
			return b(f)
		}
	default:
		return func(f *frame) ctrl {
			for _, fn := range fns {
				if fn(f) == ctrlReturn {
					return ctrlReturn
				}
			}
			return ctrlNext
		}
	}
}

// blockShared compiles the statements of a block into the given scope
// without opening a new one (function bodies and foreach bodies share their
// parameter/loop-variable scope, matching the interpreter).
func (fc *fcomp) blockShared(b *mcpl.Block, sc *cscope) (stmtFn, error) {
	fns := make([]stmtFn, 0, len(b.Stmts))
	for _, s := range b.Stmts {
		fn, err := fc.stmt(s, sc)
		if err != nil {
			return nil, err
		}
		fns = append(fns, fn)
	}
	return seq(fns), nil
}

func (fc *fcomp) block(b *mcpl.Block, parent *cscope) (stmtFn, error) {
	return fc.blockShared(b, newScope(parent))
}

func (fc *fcomp) stmt(s mcpl.Stmt, sc *cscope) (stmtFn, error) {
	switch st := s.(type) {
	case *mcpl.Block:
		return fc.block(st, sc)
	case *mcpl.VarDecl:
		return fc.varDecl(st, sc)
	case *mcpl.Assign:
		return fc.assign(st, sc)
	case *mcpl.IncDec:
		op := "+="
		if st.Op == "--" {
			op = "-="
		}
		return fc.assign(&mcpl.Assign{
			Lhs: st.Lhs, Op: op, Rhs: &mcpl.IntLit{Value: 1, Pos: st.Pos}, Pos: st.Pos,
		}, sc)
	case *mcpl.If:
		cond, err := fc.boolExpr(st.Cond, sc)
		if err != nil {
			return nil, err
		}
		then, err := fc.block(st.Then, sc)
		if err != nil {
			return nil, err
		}
		if st.Else == nil {
			return func(f *frame) ctrl {
				if cond(f) {
					return then(f)
				}
				return ctrlNext
			}, nil
		}
		els, err := fc.stmt(st.Else, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl {
			if cond(f) {
				return then(f)
			}
			return els(f)
		}, nil
	case *mcpl.For:
		inner := newScope(sc)
		init := nopStmt
		if st.Init != nil {
			fn, err := fc.stmt(st.Init, inner)
			if err != nil {
				return nil, err
			}
			init = fn
		}
		cond := func(*frame) bool { return true }
		if st.Cond != nil {
			fn, err := fc.boolExpr(st.Cond, inner)
			if err != nil {
				return nil, err
			}
			cond = fn
		}
		post := nopStmt
		if st.Post != nil {
			fn, err := fc.stmt(st.Post, inner)
			if err != nil {
				return nil, err
			}
			post = fn
		}
		body, err := fc.block(st.Body, inner)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl {
			for init(f); cond(f); post(f) {
				if body(f) == ctrlReturn {
					return ctrlReturn
				}
			}
			return ctrlNext
		}, nil
	case *mcpl.While:
		cond, err := fc.boolExpr(st.Cond, sc)
		if err != nil {
			return nil, err
		}
		body, err := fc.block(st.Body, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl {
			for cond(f) {
				if body(f) == ctrlReturn {
					return ctrlReturn
				}
			}
			return ctrlNext
		}, nil
	case *mcpl.Foreach:
		return fc.foreach(st, sc)
	case *mcpl.Return:
		if st.Value == nil {
			return func(*frame) ctrl { return ctrlReturn }, nil
		}
		switch fc.cf.fn.Return.Kind {
		case mcpl.KindFloat:
			v, err := fc.floatExpr(st.Value, sc)
			if err != nil {
				return nil, err
			}
			return func(f *frame) ctrl {
				f.retf = v(f)
				return ctrlReturn
			}, nil
		case mcpl.KindInt:
			v, err := fc.intExpr(st.Value, sc)
			if err != nil {
				return nil, err
			}
			return func(f *frame) ctrl {
				f.reti = v(f)
				return ctrlReturn
			}, nil
		case mcpl.KindBool:
			v, err := fc.boolExpr(st.Value, sc)
			if err != nil {
				return nil, err
			}
			return func(f *frame) ctrl {
				f.retb = v(f)
				return ctrlReturn
			}, nil
		default:
			return nil, unsupported("%v: return value in void function", st.Pos)
		}
	case *mcpl.ExprStmt:
		return fc.exprStmt(st, sc)
	case *mcpl.Barrier:
		pos := st.Pos
		return func(f *frame) ctrl {
			if f.bar == nil {
				throw("%v: barrier executed outside parallel foreach", pos)
			}
			if !f.bar.wait() {
				throw("%v: barrier aborted by failing thread", pos)
			}
			return ctrlNext
		}, nil
	default:
		return nil, unsupported("%v: unknown statement %T", s.Position(), s)
	}
}

func (fc *fcomp) varDecl(d *mcpl.VarDecl, sc *cscope) (stmtFn, error) {
	ref, err := fc.alloc(d.Type, d.Pos)
	if err != nil {
		return nil, err
	}
	if d.Type.IsArray() {
		dimFns := make([]intFn, len(d.Type.Dims))
		for i, de := range d.Type.Dims {
			fn, err := fc.intExpr(de, sc)
			if err != nil {
				return nil, err
			}
			dimFns[i] = fn
		}
		// Bind after dim compilation: dims cannot reference the variable.
		sc.vars[d.Name] = symInfo{ref: ref, typ: d.Type}
		slot, kind, pos := ref.idx, d.Type.Kind, d.Pos
		return func(f *frame) ctrl {
			dims := make([]int, len(dimFns))
			for i, fn := range dimFns {
				n := fn(f)
				if n < 0 {
					throw("%v: negative array dimension %d", pos, n)
				}
				dims[i] = int(n)
			}
			if kind == mcpl.KindFloat {
				f.a[slot] = interp.NewFloatArray(dims...)
			} else {
				f.a[slot] = interp.NewIntArray(dims...)
			}
			return ctrlNext
		}, nil
	}
	var fn stmtFn
	slot := ref.idx
	switch d.Type.Kind {
	case mcpl.KindFloat:
		if d.Init != nil {
			v, err := fc.floatExpr(d.Init, sc)
			if err != nil {
				return nil, err
			}
			fn = func(f *frame) ctrl { f.f[slot] = v(f); return ctrlNext }
		} else {
			fn = func(f *frame) ctrl { f.f[slot] = 0; return ctrlNext }
		}
	case mcpl.KindInt:
		if d.Init != nil {
			v, err := fc.intExpr(d.Init, sc)
			if err != nil {
				return nil, err
			}
			fn = func(f *frame) ctrl { f.i[slot] = v(f); return ctrlNext }
		} else {
			fn = func(f *frame) ctrl { f.i[slot] = 0; return ctrlNext }
		}
	case mcpl.KindBool:
		if d.Init != nil {
			v, err := fc.boolExpr(d.Init, sc)
			if err != nil {
				return nil, err
			}
			fn = func(f *frame) ctrl { f.b[slot] = v(f); return ctrlNext }
		} else {
			fn = func(f *frame) ctrl { f.b[slot] = false; return ctrlNext }
		}
	default:
		return nil, unsupported("%v: variable of type %s", d.Pos, d.Type)
	}
	sc.vars[d.Name] = symInfo{ref: ref, typ: d.Type}
	return fn, nil
}

func (fc *fcomp) assign(a *mcpl.Assign, sc *cscope) (stmtFn, error) {
	switch lhs := a.Lhs.(type) {
	case *mcpl.Ident:
		sym, crossed, ok := sc.lookupAssign(lhs.Name)
		if !ok {
			return nil, unsupported("%v: undefined variable %s", lhs.Pos, lhs.Name)
		}
		if crossed && !sym.typ.IsArray() {
			// A scalar declared outside a barrier-synchronized foreach:
			// parallel iterations run in private frame copies, so the write
			// could not be shared. The interpreter's shared-cell semantics are
			// racy here; defer to it explicitly.
			return nil, unsupported("%v: assignment to scalar %s declared outside parallel foreach", a.Pos, lhs.Name)
		}
		return fc.scalarAssign(a, sym, sc)
	case *mcpl.Index:
		return fc.indexAssign(a, lhs, sc)
	default:
		return nil, unsupported("%v: bad assignment target", a.Pos)
	}
}

func (fc *fcomp) scalarAssign(a *mcpl.Assign, sym symInfo, sc *cscope) (stmtFn, error) {
	slot := sym.ref.idx
	switch sym.typ.Kind {
	case mcpl.KindFloat:
		rhs, err := fc.floatExpr(a.Rhs, sc)
		if err != nil {
			return nil, err
		}
		switch a.Op {
		case "=":
			return func(f *frame) ctrl { f.f[slot] = rhs(f); return ctrlNext }, nil
		case "+=":
			return func(f *frame) ctrl { f.f[slot] += rhs(f); return ctrlNext }, nil
		case "-=":
			return func(f *frame) ctrl { f.f[slot] -= rhs(f); return ctrlNext }, nil
		case "*=":
			return func(f *frame) ctrl { f.f[slot] *= rhs(f); return ctrlNext }, nil
		case "/=":
			return func(f *frame) ctrl { f.f[slot] /= rhs(f); return ctrlNext }, nil
		}
		return nil, unsupported("%v: operator %s on float", a.Pos, a.Op)
	case mcpl.KindInt:
		rhs, err := fc.intExpr(a.Rhs, sc)
		if err != nil {
			return nil, err
		}
		pos := a.Pos
		switch a.Op {
		case "=":
			return func(f *frame) ctrl { f.i[slot] = rhs(f); return ctrlNext }, nil
		case "+=":
			return func(f *frame) ctrl { f.i[slot] += rhs(f); return ctrlNext }, nil
		case "-=":
			return func(f *frame) ctrl { f.i[slot] -= rhs(f); return ctrlNext }, nil
		case "*=":
			return func(f *frame) ctrl { f.i[slot] *= rhs(f); return ctrlNext }, nil
		case "/=":
			return func(f *frame) ctrl {
				r := rhs(f)
				if r == 0 {
					throw("%v: integer division by zero", pos)
				}
				f.i[slot] /= r
				return ctrlNext
			}, nil
		case "%=":
			return func(f *frame) ctrl {
				r := rhs(f)
				if r == 0 {
					throw("%v: integer modulo by zero", pos)
				}
				f.i[slot] %= r
				return ctrlNext
			}, nil
		}
		return nil, unsupported("%v: operator %s on int", a.Pos, a.Op)
	case mcpl.KindBool:
		if a.Op != "=" {
			return nil, unsupported("%v: operator %s on boolean", a.Pos, a.Op)
		}
		rhs, err := fc.boolExpr(a.Rhs, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl { f.b[slot] = rhs(f); return ctrlNext }, nil
	}
	return nil, unsupported("%v: assignment to %s", a.Pos, sym.typ)
}

func (fc *fcomp) indexAssign(a *mcpl.Assign, lhs *mcpl.Index, sc *cscope) (stmtFn, error) {
	oi, kind, err := fc.indexRef(lhs, sc)
	if err != nil {
		return nil, err
	}
	pos := a.Pos
	if kind == mcpl.KindFloat {
		rhs, err := fc.floatExpr(a.Rhs, sc)
		if err != nil {
			return nil, err
		}
		switch a.Op {
		case "=":
			return func(f *frame) ctrl { arr, off := oi(f); arr.F[off] = rhs(f); return ctrlNext }, nil
		case "+=":
			return func(f *frame) ctrl { arr, off := oi(f); arr.F[off] += rhs(f); return ctrlNext }, nil
		case "-=":
			return func(f *frame) ctrl { arr, off := oi(f); arr.F[off] -= rhs(f); return ctrlNext }, nil
		case "*=":
			return func(f *frame) ctrl { arr, off := oi(f); arr.F[off] *= rhs(f); return ctrlNext }, nil
		case "/=":
			return func(f *frame) ctrl { arr, off := oi(f); arr.F[off] /= rhs(f); return ctrlNext }, nil
		}
		return nil, unsupported("%v: operator %s on float element", a.Pos, a.Op)
	}
	rhs, err := fc.intExpr(a.Rhs, sc)
	if err != nil {
		return nil, err
	}
	switch a.Op {
	case "=":
		return func(f *frame) ctrl { arr, off := oi(f); arr.I[off] = rhs(f); return ctrlNext }, nil
	case "+=":
		return func(f *frame) ctrl { arr, off := oi(f); arr.I[off] += rhs(f); return ctrlNext }, nil
	case "-=":
		return func(f *frame) ctrl { arr, off := oi(f); arr.I[off] -= rhs(f); return ctrlNext }, nil
	case "*=":
		return func(f *frame) ctrl { arr, off := oi(f); arr.I[off] *= rhs(f); return ctrlNext }, nil
	case "/=":
		return func(f *frame) ctrl {
			arr, off := oi(f)
			r := rhs(f)
			if r == 0 {
				throw("%v: integer division by zero", pos)
			}
			arr.I[off] /= r
			return ctrlNext
		}, nil
	case "%=":
		return func(f *frame) ctrl {
			arr, off := oi(f)
			r := rhs(f)
			if r == 0 {
				throw("%v: integer modulo by zero", pos)
			}
			arr.I[off] %= r
			return ctrlNext
		}, nil
	}
	return nil, unsupported("%v: operator %s on int element", a.Pos, a.Op)
}

func (fc *fcomp) exprStmt(st *mcpl.ExprStmt, sc *cscope) (stmtFn, error) {
	t, err := fc.typeOf(st.X, sc)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case mcpl.KindVoid:
		call, ok := st.X.(*mcpl.Call)
		if !ok {
			return nil, unsupported("%v: void expression statement", st.Pos)
		}
		callee, stores, err := fc.callHelper(call, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl {
			nf := invoke(f, callee, stores)
			callee.lay.put(nf)
			return ctrlNext
		}, nil
	case mcpl.KindFloat:
		v, err := fc.floatExpr(st.X, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl { v(f); return ctrlNext }, nil
	case mcpl.KindInt:
		v, err := fc.intExpr(st.X, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl { v(f); return ctrlNext }, nil
	case mcpl.KindBool:
		v, err := fc.boolExpr(st.X, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) ctrl { v(f); return ctrlNext }, nil
	}
	return nil, unsupported("%v: expression statement of type %s", st.Pos, t)
}

// ---------- foreach ----------

// hasDirectBarrier reports whether the block contains a barrier not nested
// inside another foreach (same scan as the interpreter, so both engines
// choose the same execution mode).
func hasDirectBarrier(b *mcpl.Block) bool {
	var scan func(ss []mcpl.Stmt) bool
	scan = func(ss []mcpl.Stmt) bool {
		for _, s := range ss {
			switch st := s.(type) {
			case *mcpl.Barrier:
				return true
			case *mcpl.Block:
				if scan(st.Stmts) {
					return true
				}
			case *mcpl.If:
				if scan(st.Then.Stmts) {
					return true
				}
				if st.Else != nil && scan([]mcpl.Stmt{st.Else}) {
					return true
				}
			case *mcpl.For:
				if scan(st.Body.Stmts) {
					return true
				}
			case *mcpl.While:
				if scan(st.Body.Stmts) {
					return true
				}
			}
		}
		return false
	}
	return scan(b.Stmts)
}

func (fc *fcomp) foreach(st *mcpl.Foreach, sc *cscope) (stmtFn, error) {
	// Collect the maximal chain of directly nested single-statement foreach
	// loops into one combined iteration domain (barriers synchronize the
	// whole work-group, all dimensions at once). Bounds compile in the outer
	// scope, matching the interpreter's upfront evaluation.
	type dim struct {
		slot  int
		bound intFn
	}
	var dims []dim
	inner := newScope(sc)
	body := st.Body
	cur := st
	for {
		bf, err := fc.intExpr(cur.Bound, sc)
		if err != nil {
			return nil, err
		}
		ref, err := fc.alloc(mcpl.Type{Kind: mcpl.KindInt}, cur.Pos)
		if err != nil {
			return nil, err
		}
		inner.vars[cur.Var] = symInfo{ref: ref, typ: mcpl.Type{Kind: mcpl.KindInt}}
		dims = append(dims, dim{slot: ref.idx, bound: bf})
		if len(cur.Body.Stmts) == 1 {
			if next, ok := cur.Body.Stmts[0].(*mcpl.Foreach); ok {
				cur = next
				body = next.Body
				continue
			}
		}
		body = cur.Body
		break
	}
	parallel := hasDirectBarrier(body)
	inner.boundary = parallel
	bodyFn, err := fc.blockShared(body, inner)
	if err != nil {
		return nil, err
	}
	pos := st.Pos

	if !parallel {
		// Sequential mode shares the enclosing frame, so reductions over
		// outer scalars behave exactly like the interpreter's shared cells.
		switch len(dims) {
		case 1:
			d0 := dims[0]
			return func(f *frame) ctrl {
				b0 := checkBound(pos, d0.bound(f))
				for i := int64(0); i < b0; i++ {
					f.i[d0.slot] = i
					if bodyFn(f) == ctrlReturn {
						throw("%v: return inside foreach", pos)
					}
				}
				return ctrlNext
			}, nil
		case 2:
			d0, d1 := dims[0], dims[1]
			return func(f *frame) ctrl {
				b0 := checkBound(pos, d0.bound(f))
				b1 := checkBound(pos, d1.bound(f))
				for i := int64(0); i < b0; i++ {
					f.i[d0.slot] = i
					for j := int64(0); j < b1; j++ {
						f.i[d1.slot] = j
						if bodyFn(f) == ctrlReturn {
							throw("%v: return inside foreach", pos)
						}
					}
				}
				return ctrlNext
			}, nil
		default:
			ds := dims
			return func(f *frame) ctrl {
				bs := make([]int64, len(ds))
				total := int64(1)
				for i, d := range ds {
					bs[i] = checkBound(pos, d.bound(f))
					total *= bs[i]
				}
				for flat := int64(0); flat < total; flat++ {
					rem := flat
					for d := len(ds) - 1; d >= 0; d-- {
						if bs[d] > 0 {
							f.i[ds[d].slot] = rem % bs[d]
							rem /= bs[d]
						}
					}
					if bodyFn(f) == ctrlReturn {
						throw("%v: return inside foreach", pos)
					}
				}
				return ctrlNext
			}, nil
		}
	}

	// Parallel mode: one worker-pool task per combined iteration, private
	// frame copies, synchronized at barriers spanning the whole domain.
	ds := dims
	lay := fc.cf.lay
	return func(f *frame) ctrl {
		bs := make([]int64, len(ds))
		total := int64(1)
		for i, d := range ds {
			bs[i] = checkBound(pos, d.bound(f))
			total *= bs[i]
		}
		if total == 0 {
			return ctrlNext
		}
		bar := newBarrier(int(total))
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for flat := int64(0); flat < total; flat++ {
			sub := lay.get(f.rt)
			sub.copyFrom(f)
			sub.bar = bar
			rem := flat
			for d := len(ds) - 1; d >= 0; d-- {
				if bs[d] > 0 {
					sub.i[ds[d].slot] = rem % bs[d]
					rem /= bs[d]
				}
			}
			wg.Add(1)
			f.rt.submit(func() {
				defer wg.Done()
				if err := runParallelBody(bodyFn, sub, pos); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					bar.abort()
				}
				lay.put(sub)
			})
		}
		wg.Wait()
		if firstErr != nil {
			panic(runtimeError{firstErr})
		}
		return ctrlNext
	}, nil
}

func checkBound(pos mcpl.Pos, b int64) int64 {
	if b < 0 {
		throw("%v: negative foreach bound %d", pos, b)
	}
	return b
}

func runParallelBody(body stmtFn, f *frame, pos mcpl.Pos) (err error) {
	defer catch(&err)
	if body(f) == ctrlReturn {
		return fmt.Errorf("%v: return inside parallel foreach", pos)
	}
	return nil
}

// ---------- array indexing ----------

// indexRef compiles an index expression into a closure resolving the target
// array and flat row-major offset, with per-dimension bounds checks. Ranks
// one to three are unrolled (every app kernel is rank <= 3).
func (fc *fcomp) indexRef(x *mcpl.Index, sc *cscope) (func(*frame) (*interp.Array, int), mcpl.BasicKind, error) {
	id := x.Array.(*mcpl.Ident)
	sym, ok := sc.lookup(id.Name)
	if !ok || !sym.typ.IsArray() {
		return nil, 0, unsupported("%v: %s is not an array", x.Pos, id.Name)
	}
	if len(x.Args) != len(sym.typ.Dims) {
		return nil, 0, unsupported("%v: array %s rank mismatch", x.Pos, id.Name)
	}
	idxFns := make([]intFn, len(x.Args))
	for i, a := range x.Args {
		fn, err := fc.intExpr(a, sc)
		if err != nil {
			return nil, 0, err
		}
		idxFns[i] = fn
	}
	slot := sym.ref.idx
	name, pos := id.Name, x.Pos
	switch len(idxFns) {
	case 1:
		i0 := idxFns[0]
		return func(f *frame) (*interp.Array, int) {
			arr := f.a[slot]
			k0 := i0(f)
			if uint64(k0) >= uint64(arr.Dims[0]) {
				throwIndex(pos, name, k0, arr.Dims[0], 0)
			}
			return arr, int(k0)
		}, sym.typ.Kind, nil
	case 2:
		i0, i1 := idxFns[0], idxFns[1]
		return func(f *frame) (*interp.Array, int) {
			arr := f.a[slot]
			k0, k1 := i0(f), i1(f)
			if uint64(k0) >= uint64(arr.Dims[0]) {
				throwIndex(pos, name, k0, arr.Dims[0], 0)
			}
			if uint64(k1) >= uint64(arr.Dims[1]) {
				throwIndex(pos, name, k1, arr.Dims[1], 1)
			}
			return arr, int(k0)*arr.Dims[1] + int(k1)
		}, sym.typ.Kind, nil
	case 3:
		i0, i1, i2 := idxFns[0], idxFns[1], idxFns[2]
		return func(f *frame) (*interp.Array, int) {
			arr := f.a[slot]
			k0, k1, k2 := i0(f), i1(f), i2(f)
			if uint64(k0) >= uint64(arr.Dims[0]) {
				throwIndex(pos, name, k0, arr.Dims[0], 0)
			}
			if uint64(k1) >= uint64(arr.Dims[1]) {
				throwIndex(pos, name, k1, arr.Dims[1], 1)
			}
			if uint64(k2) >= uint64(arr.Dims[2]) {
				throwIndex(pos, name, k2, arr.Dims[2], 2)
			}
			return arr, (int(k0)*arr.Dims[1]+int(k1))*arr.Dims[2] + int(k2)
		}, sym.typ.Kind, nil
	default:
		return func(f *frame) (*interp.Array, int) {
			arr := f.a[slot]
			off := 0
			for d, fn := range idxFns {
				k := fn(f)
				if uint64(k) >= uint64(arr.Dims[d]) {
					throwIndex(pos, name, k, arr.Dims[d], d)
				}
				off = off*arr.Dims[d] + int(k)
			}
			return arr, off
		}, sym.typ.Kind, nil
	}
}

func throwIndex(pos mcpl.Pos, name string, k int64, dim, d int) {
	throw("%v: %s: index %d out of range [0,%d) in dimension %d", pos, name, k, dim, d)
}

// ---------- helper function calls ----------

func (fc *fcomp) callHelper(x *mcpl.Call, sc *cscope) (*cfunc, []func(cf, nf *frame), error) {
	callee, err := fc.c.fnFor(x.Name)
	if err != nil {
		return nil, nil, err
	}
	if len(x.Args) != len(callee.fn.Params) {
		return nil, nil, unsupported("%v: %s takes %d arguments, got %d", x.Pos, x.Name, len(callee.fn.Params), len(x.Args))
	}
	stores := make([]func(cf, nf *frame), len(x.Args))
	for i, arg := range x.Args {
		prm := callee.fn.Params[i]
		dst := callee.params[i].idx
		if prm.Type.IsArray() {
			aid, ok := arg.(*mcpl.Ident)
			if !ok {
				return nil, nil, unsupported("%v: array argument must be a variable", arg.Position())
			}
			asym, ok := sc.lookup(aid.Name)
			if !ok || !asym.typ.IsArray() {
				return nil, nil, unsupported("%v: %s is not an array", arg.Position(), aid.Name)
			}
			src := asym.ref.idx
			stores[i] = func(cf, nf *frame) { nf.a[dst] = cf.a[src] }
			continue
		}
		switch prm.Type.Kind {
		case mcpl.KindFloat:
			v, err := fc.floatExpr(arg, sc)
			if err != nil {
				return nil, nil, err
			}
			stores[i] = func(cf, nf *frame) { nf.f[dst] = v(cf) }
		case mcpl.KindInt:
			v, err := fc.intExpr(arg, sc)
			if err != nil {
				return nil, nil, err
			}
			stores[i] = func(cf, nf *frame) { nf.i[dst] = v(cf) }
		case mcpl.KindBool:
			v, err := fc.boolExpr(arg, sc)
			if err != nil {
				return nil, nil, err
			}
			stores[i] = func(cf, nf *frame) { nf.b[dst] = v(cf) }
		default:
			return nil, nil, unsupported("%v: argument of type %s", arg.Position(), prm.Type)
		}
	}
	return callee, stores, nil
}

// invoke runs a compiled helper in a pooled frame. The caller reads the
// return slot and must put the frame back.
func invoke(cf *frame, callee *cfunc, stores []func(cf, nf *frame)) *frame {
	nf := callee.lay.get(cf.rt)
	for _, st := range stores {
		st(cf, nf)
	}
	for _, dc := range callee.dimChecks {
		arr := nf.a[dc.slot]
		if want := dc.want(nf); int64(arr.Dims[dc.dim]) != want {
			throw("closure: argument %s dimension %d is %d, want %d (%s)",
				dc.name, dc.dim, arr.Dims[dc.dim], want, dc.expr)
		}
	}
	callee.body(nf)
	return nf
}

// ---------- expressions ----------

func (fc *fcomp) floatExpr(e mcpl.Expr, sc *cscope) (floatFn, error) {
	t, err := fc.typeOf(e, sc)
	if err != nil {
		return nil, err
	}
	switch t.Kind {
	case mcpl.KindFloat:
		return fc.floatNative(e, sc)
	case mcpl.KindInt:
		v, err := fc.intNative(e, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) float64 { return float64(v(f)) }, nil
	}
	return nil, unsupported("%v: %s expression where float expected", e.Position(), t)
}

func (fc *fcomp) floatNative(e mcpl.Expr, sc *cscope) (floatFn, error) {
	switch x := e.(type) {
	case *mcpl.FloatLit:
		v := x.Value
		return func(*frame) float64 { return v }, nil
	case *mcpl.Ident:
		sym, ok := sc.lookup(x.Name)
		if !ok {
			return nil, unsupported("%v: undefined variable %s", x.Pos, x.Name)
		}
		slot := sym.ref.idx
		return func(f *frame) float64 { return f.f[slot] }, nil
	case *mcpl.Unary: // only "-" yields float
		v, err := fc.floatExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) float64 { return -v(f) }, nil
	case *mcpl.Cast:
		return fc.floatExpr(x.X, sc) // (float)x: identity or int widening
	case *mcpl.Cond:
		c, err := fc.boolExpr(x.C, sc)
		if err != nil {
			return nil, err
		}
		tv, err := fc.floatExpr(x.T, sc)
		if err != nil {
			return nil, err
		}
		fv, err := fc.floatExpr(x.F, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) float64 {
			if c(f) {
				return tv(f)
			}
			return fv(f)
		}, nil
	case *mcpl.Binary:
		l, err := fc.floatExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := fc.floatExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return func(f *frame) float64 { return l(f) + r(f) }, nil
		case "-":
			return func(f *frame) float64 { return l(f) - r(f) }, nil
		case "*":
			return func(f *frame) float64 { return l(f) * r(f) }, nil
		case "/":
			return func(f *frame) float64 { return l(f) / r(f) }, nil
		}
		return nil, unsupported("%v: float operator %s", x.Pos, x.Op)
	case *mcpl.Index:
		oi, kind, err := fc.indexRef(x, sc)
		if err != nil {
			return nil, err
		}
		if kind != mcpl.KindFloat {
			return nil, unsupported("%v: int array element where float expected", x.Pos)
		}
		return func(f *frame) float64 { arr, off := oi(f); return arr.F[off] }, nil
	case *mcpl.Call:
		if _, ok := mcpl.Builtins[x.Name]; ok {
			return fc.floatBuiltin(x, sc)
		}
		callee, stores, err := fc.callHelper(x, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) float64 {
			nf := invoke(f, callee, stores)
			v := nf.retf
			callee.lay.put(nf)
			return v
		}, nil
	default:
		return nil, unsupported("%v: float expression %T", e.Position(), e)
	}
}

func (fc *fcomp) floatBuiltin(x *mcpl.Call, sc *cscope) (floatFn, error) {
	b := mcpl.Builtins[x.Name]
	if len(x.Args) != len(b.Params) {
		return nil, unsupported("%v: %s takes %d arguments", x.Pos, x.Name, len(b.Params))
	}
	args := make([]floatFn, len(x.Args))
	for i, a := range x.Args {
		fn, err := fc.floatExpr(a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	switch x.Name {
	case "sqrt":
		a0 := args[0]
		return func(f *frame) float64 { return math.Sqrt(a0(f)) }, nil
	case "rsqrt":
		a0 := args[0]
		return func(f *frame) float64 { return 1 / math.Sqrt(a0(f)) }, nil
	case "fabs":
		a0 := args[0]
		return func(f *frame) float64 { return math.Abs(a0(f)) }, nil
	case "floor":
		a0 := args[0]
		return func(f *frame) float64 { return math.Floor(a0(f)) }, nil
	case "exp":
		a0 := args[0]
		return func(f *frame) float64 { return math.Exp(a0(f)) }, nil
	case "log":
		a0 := args[0]
		return func(f *frame) float64 { return math.Log(a0(f)) }, nil
	case "sin":
		a0 := args[0]
		return func(f *frame) float64 { return math.Sin(a0(f)) }, nil
	case "cos":
		a0 := args[0]
		return func(f *frame) float64 { return math.Cos(a0(f)) }, nil
	case "tan":
		a0 := args[0]
		return func(f *frame) float64 { return math.Tan(a0(f)) }, nil
	case "pow":
		a0, a1 := args[0], args[1]
		return func(f *frame) float64 { return math.Pow(a0(f), a1(f)) }, nil
	case "fmin":
		a0, a1 := args[0], args[1]
		return func(f *frame) float64 { return math.Min(a0(f), a1(f)) }, nil
	case "fmax":
		a0, a1 := args[0], args[1]
		return func(f *frame) float64 { return math.Max(a0(f), a1(f)) }, nil
	case "clamp":
		a0, a1, a2 := args[0], args[1], args[2]
		return func(f *frame) float64 { return math.Min(math.Max(a0(f), a1(f)), a2(f)) }, nil
	}
	return nil, unsupported("%v: unknown float builtin %s", x.Pos, x.Name)
}

func (fc *fcomp) intExpr(e mcpl.Expr, sc *cscope) (intFn, error) {
	t, err := fc.typeOf(e, sc)
	if err != nil {
		return nil, err
	}
	if t.Kind != mcpl.KindInt || t.IsArray() {
		return nil, unsupported("%v: %s expression where int expected", e.Position(), t)
	}
	return fc.intNative(e, sc)
}

func (fc *fcomp) intNative(e mcpl.Expr, sc *cscope) (intFn, error) {
	switch x := e.(type) {
	case *mcpl.IntLit:
		v := x.Value
		return func(*frame) int64 { return v }, nil
	case *mcpl.Ident:
		sym, ok := sc.lookup(x.Name)
		if !ok {
			return nil, unsupported("%v: undefined variable %s", x.Pos, x.Name)
		}
		slot := sym.ref.idx
		return func(f *frame) int64 { return f.i[slot] }, nil
	case *mcpl.Unary:
		v, err := fc.intExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return func(f *frame) int64 { return -v(f) }, nil
		case "~":
			return func(f *frame) int64 { return ^v(f) }, nil
		}
		return nil, unsupported("%v: int unary %s", x.Pos, x.Op)
	case *mcpl.Cast:
		it, err := fc.typeOf(x.X, sc)
		if err != nil {
			return nil, err
		}
		if it.Kind == mcpl.KindFloat {
			v, err := fc.floatNative(x.X, sc)
			if err != nil {
				return nil, err
			}
			return func(f *frame) int64 { return int64(v(f)) }, nil
		}
		return fc.intExpr(x.X, sc)
	case *mcpl.Cond:
		c, err := fc.boolExpr(x.C, sc)
		if err != nil {
			return nil, err
		}
		tv, err := fc.intExpr(x.T, sc)
		if err != nil {
			return nil, err
		}
		fv, err := fc.intExpr(x.F, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) int64 {
			if c(f) {
				return tv(f)
			}
			return fv(f)
		}, nil
	case *mcpl.Binary:
		l, err := fc.intExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := fc.intExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		pos := x.Pos
		switch x.Op {
		case "+":
			return func(f *frame) int64 { return l(f) + r(f) }, nil
		case "-":
			return func(f *frame) int64 { return l(f) - r(f) }, nil
		case "*":
			return func(f *frame) int64 { return l(f) * r(f) }, nil
		case "/":
			return func(f *frame) int64 {
				rv := r(f)
				if rv == 0 {
					throw("%v: integer division by zero", pos)
				}
				return l(f) / rv
			}, nil
		case "%":
			return func(f *frame) int64 {
				rv := r(f)
				if rv == 0 {
					throw("%v: integer modulo by zero", pos)
				}
				return l(f) % rv
			}, nil
		case "<<":
			return func(f *frame) int64 { return l(f) << uint(r(f)&63) }, nil
		case ">>":
			return func(f *frame) int64 { return l(f) >> uint(r(f)&63) }, nil
		case "&":
			return func(f *frame) int64 { return l(f) & r(f) }, nil
		case "|":
			return func(f *frame) int64 { return l(f) | r(f) }, nil
		case "^":
			return func(f *frame) int64 { return l(f) ^ r(f) }, nil
		}
		return nil, unsupported("%v: int operator %s", x.Pos, x.Op)
	case *mcpl.Index:
		oi, kind, err := fc.indexRef(x, sc)
		if err != nil {
			return nil, err
		}
		if kind != mcpl.KindInt {
			return nil, unsupported("%v: float array element where int expected", x.Pos)
		}
		return func(f *frame) int64 { arr, off := oi(f); return arr.I[off] }, nil
	case *mcpl.Call:
		if _, ok := mcpl.Builtins[x.Name]; ok {
			return fc.intBuiltin(x, sc)
		}
		callee, stores, err := fc.callHelper(x, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) int64 {
			nf := invoke(f, callee, stores)
			v := nf.reti
			callee.lay.put(nf)
			return v
		}, nil
	default:
		return nil, unsupported("%v: int expression %T", e.Position(), e)
	}
}

func (fc *fcomp) intBuiltin(x *mcpl.Call, sc *cscope) (intFn, error) {
	args := make([]intFn, len(x.Args))
	for i, a := range x.Args {
		fn, err := fc.intExpr(a, sc)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	switch x.Name {
	case "abs":
		a0 := args[0]
		return func(f *frame) int64 {
			v := a0(f)
			if v < 0 {
				v = -v
			}
			return v
		}, nil
	case "min":
		a0, a1 := args[0], args[1]
		return func(f *frame) int64 {
			a, b := a0(f), a1(f)
			if a < b {
				return a
			}
			return b
		}, nil
	case "max":
		a0, a1 := args[0], args[1]
		return func(f *frame) int64 {
			a, b := a0(f), a1(f)
			if a > b {
				return a
			}
			return b
		}, nil
	}
	return nil, unsupported("%v: unknown int builtin %s", x.Pos, x.Name)
}

func (fc *fcomp) boolExpr(e mcpl.Expr, sc *cscope) (boolFn, error) {
	switch x := e.(type) {
	case *mcpl.BoolLit:
		v := x.Value
		return func(*frame) bool { return v }, nil
	case *mcpl.Ident:
		sym, ok := sc.lookup(x.Name)
		if !ok {
			return nil, unsupported("%v: undefined variable %s", x.Pos, x.Name)
		}
		if sym.typ.Kind != mcpl.KindBool || sym.typ.IsArray() {
			return nil, unsupported("%v: %s is not boolean", x.Pos, x.Name)
		}
		slot := sym.ref.idx
		return func(f *frame) bool { return f.b[slot] }, nil
	case *mcpl.Unary:
		if x.Op != "!" {
			return nil, unsupported("%v: bool unary %s", x.Pos, x.Op)
		}
		v, err := fc.boolExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) bool { return !v(f) }, nil
	case *mcpl.Binary:
		switch x.Op {
		case "&&":
			l, err := fc.boolExpr(x.L, sc)
			if err != nil {
				return nil, err
			}
			r, err := fc.boolExpr(x.R, sc)
			if err != nil {
				return nil, err
			}
			return func(f *frame) bool { return l(f) && r(f) }, nil
		case "||":
			l, err := fc.boolExpr(x.L, sc)
			if err != nil {
				return nil, err
			}
			r, err := fc.boolExpr(x.R, sc)
			if err != nil {
				return nil, err
			}
			return func(f *frame) bool { return l(f) || r(f) }, nil
		case "<", "<=", ">", ">=", "==", "!=":
			return fc.compare(x, sc)
		}
		return nil, unsupported("%v: bool operator %s", x.Pos, x.Op)
	case *mcpl.Call:
		if _, ok := mcpl.Builtins[x.Name]; ok {
			return nil, unsupported("%v: builtin %s is not boolean", x.Pos, x.Name)
		}
		callee, stores, err := fc.callHelper(x, sc)
		if err != nil {
			return nil, err
		}
		return func(f *frame) bool {
			nf := invoke(f, callee, stores)
			v := nf.retb
			callee.lay.put(nf)
			return v
		}, nil
	default:
		return nil, unsupported("%v: bool expression %T", e.Position(), e)
	}
}

func (fc *fcomp) compare(x *mcpl.Binary, sc *cscope) (boolFn, error) {
	lt, err := fc.typeOf(x.L, sc)
	if err != nil {
		return nil, err
	}
	rt, err := fc.typeOf(x.R, sc)
	if err != nil {
		return nil, err
	}
	if lt.Kind == mcpl.KindBool && rt.Kind == mcpl.KindBool {
		l, err := fc.boolExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := fc.boolExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "==":
			return func(f *frame) bool { return l(f) == r(f) }, nil
		case "!=":
			return func(f *frame) bool { return l(f) != r(f) }, nil
		}
		return nil, unsupported("%v: operator %s on boolean", x.Pos, x.Op)
	}
	if lt.Kind == mcpl.KindFloat || rt.Kind == mcpl.KindFloat {
		l, err := fc.floatExpr(x.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := fc.floatExpr(x.R, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "<":
			return func(f *frame) bool { return l(f) < r(f) }, nil
		case "<=":
			return func(f *frame) bool { return l(f) <= r(f) }, nil
		case ">":
			return func(f *frame) bool { return l(f) > r(f) }, nil
		case ">=":
			return func(f *frame) bool { return l(f) >= r(f) }, nil
		case "==":
			return func(f *frame) bool { return l(f) == r(f) }, nil
		case "!=":
			return func(f *frame) bool { return l(f) != r(f) }, nil
		}
	}
	l, err := fc.intExpr(x.L, sc)
	if err != nil {
		return nil, err
	}
	r, err := fc.intExpr(x.R, sc)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "<":
		return func(f *frame) bool { return l(f) < r(f) }, nil
	case "<=":
		return func(f *frame) bool { return l(f) <= r(f) }, nil
	case ">":
		return func(f *frame) bool { return l(f) > r(f) }, nil
	case ">=":
		return func(f *frame) bool { return l(f) >= r(f) }, nil
	case "==":
		return func(f *frame) bool { return l(f) == r(f) }, nil
	case "!=":
		return func(f *frame) bool { return l(f) != r(f) }, nil
	}
	return nil, unsupported("%v: comparison %s", x.Pos, x.Op)
}
