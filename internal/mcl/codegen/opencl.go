package codegen

import (
	"fmt"
	"strings"

	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
	"cashmere/internal/mcl/translate"
)

// EmitOpenCL renders a checked kernel (and the helpers it can call) as
// OpenCL-C-style source text: the concrete artifact MCL generates for each
// leaf hardware description (Sec. III-A, "generating OpenCL code").
//
// Parallelism mapping follows the pairing of Compiled.LaunchConfig, over the
// target level's translate.WorkgroupOf: the k-th enclosing foreach in the
// group unit (blocks, cores) is get_group_id(k), the k-th foreach in the
// item unit (threads, vectors) inside a group foreach is get_local_id(k),
// and the k-th other foreach, as in a flat nest (level perfect,
// untranslated), is get_global_id(k). Multi-dimensional array accesses are
// flattened row-major using the tracked dimension expressions.
func EmitOpenCL(prog *mcpl.Program, kernel string, target *hdl.Level) (string, error) {
	f := prog.Kernel(kernel)
	if f == nil {
		return "", fmt.Errorf("codegen: kernel %q not found", kernel)
	}
	e := &emitter{dims: map[string][]mcpl.Expr{}, wg: translate.WorkgroupOf(target)}
	var b strings.Builder
	fmt.Fprintf(&b, "// Generated by MCL from level %q. Do not edit.\n", f.Level)
	for _, fn := range prog.Funcs {
		if fn.IsKernel() && fn.Name != kernel {
			continue
		}
		if err := e.fn(&b, fn); err != nil {
			return "", err
		}
		b.WriteString("\n")
	}
	return b.String(), nil
}

type emitter struct {
	dims   map[string][]mcpl.Expr
	wg     translate.Workgroup // the target's group and item units
	indent int
	// Enclosing foreachs by ND-range id function: the next dimension of each.
	groups, locals, globals int
}

func (e *emitter) pad(b *strings.Builder) {
	for i := 0; i < e.indent; i++ {
		b.WriteString("    ")
	}
}

func ctype(t mcpl.Type) string {
	switch t.Kind {
	case mcpl.KindVoid:
		return "void"
	case mcpl.KindInt:
		return "int"
	case mcpl.KindFloat:
		return "float"
	case mcpl.KindBool:
		return "bool"
	}
	return "?"
}

func (e *emitter) fn(b *strings.Builder, f *mcpl.Func) error {
	if f.IsKernel() {
		fmt.Fprintf(b, "__kernel %s %s(", ctype(f.Return), f.Name)
	} else {
		fmt.Fprintf(b, "%s %s(", ctype(f.Return), f.Name)
	}
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.Type.IsArray() {
			space := "__global"
			if p.Space == mcpl.SpaceLocal {
				space = "__local"
			}
			fmt.Fprintf(b, "%s %s* %s", space, ctype(p.Type.Elem()), p.Name)
			e.dims[p.Name] = p.Type.Dims
		} else {
			fmt.Fprintf(b, "%s %s", ctype(p.Type), p.Name)
		}
	}
	b.WriteString(") {\n")
	e.indent = 1
	if err := e.stmts(b, f.Body.Stmts); err != nil {
		return err
	}
	b.WriteString("}\n")
	return nil
}

func (e *emitter) stmts(b *strings.Builder, ss []mcpl.Stmt) error {
	for _, s := range ss {
		if err := e.stmt(b, s); err != nil {
			return err
		}
	}
	return nil
}

func (e *emitter) stmt(b *strings.Builder, s mcpl.Stmt) error {
	switch st := s.(type) {
	case *mcpl.Block:
		e.pad(b)
		b.WriteString("{\n")
		e.indent++
		if err := e.stmts(b, st.Stmts); err != nil {
			return err
		}
		e.indent--
		e.pad(b)
		b.WriteString("}\n")
	case *mcpl.VarDecl:
		e.pad(b)
		if st.Type.IsArray() {
			e.dims[st.Name] = st.Type.Dims
			space := ""
			if st.Space == mcpl.SpaceLocal {
				space = "__local "
			}
			sizes := make([]string, len(st.Type.Dims))
			for i, d := range st.Type.Dims {
				sizes[i] = "(" + e.expr(d) + ")"
			}
			fmt.Fprintf(b, "%s%s %s[%s];\n", space, ctype(st.Type.Elem()), st.Name, strings.Join(sizes, " * "))
			return nil
		}
		if st.Init != nil {
			fmt.Fprintf(b, "%s %s = %s;\n", ctype(st.Type), st.Name, e.expr(st.Init))
		} else {
			fmt.Fprintf(b, "%s %s = 0;\n", ctype(st.Type), st.Name)
		}
	case *mcpl.Assign:
		e.pad(b)
		fmt.Fprintf(b, "%s %s %s;\n", e.expr(st.Lhs), st.Op, e.expr(st.Rhs))
	case *mcpl.IncDec:
		e.pad(b)
		fmt.Fprintf(b, "%s%s;\n", e.expr(st.Lhs), st.Op)
	case *mcpl.If:
		e.pad(b)
		fmt.Fprintf(b, "if (%s) {\n", e.expr(st.Cond))
		e.indent++
		if err := e.stmts(b, st.Then.Stmts); err != nil {
			return err
		}
		e.indent--
		e.pad(b)
		if st.Else != nil {
			b.WriteString("} else {\n")
			e.indent++
			if err := e.stmt(b, st.Else); err != nil {
				return err
			}
			e.indent--
			e.pad(b)
		}
		b.WriteString("}\n")
	case *mcpl.For:
		e.pad(b)
		init, post := "", ""
		if st.Init != nil {
			init = strings.TrimSuffix(strings.TrimSpace(e.inlineStmt(st.Init)), ";")
		}
		if st.Post != nil {
			post = strings.TrimSuffix(strings.TrimSpace(e.inlineStmt(st.Post)), ";")
		}
		cond := ""
		if st.Cond != nil {
			cond = e.expr(st.Cond)
		}
		fmt.Fprintf(b, "for (%s; %s; %s) {\n", init, cond, post)
		e.indent++
		if err := e.stmts(b, st.Body.Stmts); err != nil {
			return err
		}
		e.indent--
		e.pad(b)
		b.WriteString("}\n")
	case *mcpl.While:
		e.pad(b)
		fmt.Fprintf(b, "while (%s) {\n", e.expr(st.Cond))
		e.indent++
		if err := e.stmts(b, st.Body.Stmts); err != nil {
			return err
		}
		e.indent--
		e.pad(b)
		b.WriteString("}\n")
	case *mcpl.Foreach:
		idFn, n := "get_global_id", &e.globals
		switch {
		case st.Unit == e.wg.Group:
			idFn, n = "get_group_id", &e.groups
		case st.Unit == e.wg.Item && e.groups > 0:
			idFn, n = "get_local_id", &e.locals
		}
		d := *n
		*n++
		e.pad(b)
		fmt.Fprintf(b, "int %s = %s(%d); /* foreach %s in %s %s */\n",
			st.Var, idFn, d, st.Var, e.expr(st.Bound), st.Unit)
		e.pad(b)
		fmt.Fprintf(b, "if (%s < %s) {\n", st.Var, e.expr(st.Bound))
		e.indent++
		if err := e.stmts(b, st.Body.Stmts); err != nil {
			return err
		}
		e.indent--
		e.pad(b)
		b.WriteString("}\n")
		*n--
	case *mcpl.Return:
		e.pad(b)
		if st.Value != nil {
			fmt.Fprintf(b, "return %s;\n", e.expr(st.Value))
		} else {
			b.WriteString("return;\n")
		}
	case *mcpl.ExprStmt:
		e.pad(b)
		fmt.Fprintf(b, "%s;\n", e.expr(st.X))
	case *mcpl.Barrier:
		e.pad(b)
		b.WriteString("barrier(CLK_LOCAL_MEM_FENCE);\n")
	default:
		return fmt.Errorf("codegen: cannot emit %T", s)
	}
	return nil
}

func (e *emitter) inlineStmt(s mcpl.Stmt) string {
	var b strings.Builder
	saved := e.indent
	e.indent = 0
	_ = e.stmt(&b, s)
	e.indent = saved
	return b.String()
}

func (e *emitter) expr(x mcpl.Expr) string {
	switch v := x.(type) {
	case *mcpl.Ident:
		return v.Name
	case *mcpl.IntLit:
		return fmt.Sprintf("%d", v.Value)
	case *mcpl.FloatLit:
		s := fmt.Sprintf("%g", v.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s + "f"
	case *mcpl.BoolLit:
		if v.Value {
			return "true"
		}
		return "false"
	case *mcpl.Binary:
		return fmt.Sprintf("(%s %s %s)", e.expr(v.L), v.Op, e.expr(v.R))
	case *mcpl.Unary:
		return fmt.Sprintf("%s(%s)", v.Op, e.expr(v.X))
	case *mcpl.Cast:
		return fmt.Sprintf("(%s)(%s)", ctype(v.To), e.expr(v.X))
	case *mcpl.Cond:
		return fmt.Sprintf("(%s ? %s : %s)", e.expr(v.C), e.expr(v.T), e.expr(v.F))
	case *mcpl.Index:
		name := v.Array.(*mcpl.Ident).Name
		dims := e.dims[name]
		// Row-major flattening: ((i0*d1 + i1)*d2 + i2)...
		idx := e.expr(v.Args[0])
		for i := 1; i < len(v.Args); i++ {
			idx = fmt.Sprintf("(%s) * (%s) + %s", idx, e.expr(dims[i]), e.expr(v.Args[i]))
		}
		return fmt.Sprintf("%s[%s]", name, idx)
	case *mcpl.Call:
		args := make([]string, len(v.Args))
		for i, a := range v.Args {
			args[i] = e.expr(a)
		}
		return fmt.Sprintf("%s(%s)", v.Name, strings.Join(args, ", "))
	default:
		return fmt.Sprintf("/*?%T*/", x)
	}
}
