package mcpl

// CloneFunc deep-copies a function declaration, so level translation can
// rewrite the copy without aliasing the original AST.
func CloneFunc(f *Func) *Func {
	nf := &Func{Level: f.Level, Name: f.Name, Return: cloneType(f.Return), Pos: f.Pos}
	for _, p := range f.Params {
		nf.Params = append(nf.Params, Param{Name: p.Name, Type: cloneType(p.Type), Space: p.Space, Pos: p.Pos})
	}
	nf.Body = CloneBlock(f.Body)
	return nf
}

func cloneType(t Type) Type {
	nt := Type{Kind: t.Kind}
	for _, d := range t.Dims {
		nt.Dims = append(nt.Dims, CloneExpr(d))
	}
	return nt
}

// CloneBlock deep-copies a block.
func CloneBlock(b *Block) *Block {
	if b == nil {
		return nil
	}
	nb := &Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		nb.Stmts = append(nb.Stmts, CloneStmt(s))
	}
	return nb
}

// CloneStmt deep-copies a statement.
func CloneStmt(s Stmt) Stmt {
	switch st := s.(type) {
	case *Block:
		return CloneBlock(st)
	case *VarDecl:
		return &VarDecl{Name: st.Name, Type: cloneType(st.Type), Space: st.Space, Init: CloneExpr(st.Init), Pos: st.Pos}
	case *Assign:
		return &Assign{Lhs: CloneExpr(st.Lhs), Op: st.Op, Rhs: CloneExpr(st.Rhs), Pos: st.Pos}
	case *IncDec:
		return &IncDec{Lhs: CloneExpr(st.Lhs), Op: st.Op, Pos: st.Pos}
	case *If:
		ni := &If{Cond: CloneExpr(st.Cond), Then: CloneBlock(st.Then), Pos: st.Pos}
		if st.Else != nil {
			ni.Else = CloneStmt(st.Else)
		}
		return ni
	case *For:
		nf := &For{Cond: CloneExpr(st.Cond), Body: CloneBlock(st.Body), Expect: CloneExpr(st.Expect), Pos: st.Pos}
		if st.Init != nil {
			nf.Init = CloneStmt(st.Init)
		}
		if st.Post != nil {
			nf.Post = CloneStmt(st.Post)
		}
		return nf
	case *While:
		return &While{Cond: CloneExpr(st.Cond), Body: CloneBlock(st.Body), Expect: CloneExpr(st.Expect), Pos: st.Pos}
	case *Foreach:
		return &Foreach{Var: st.Var, Bound: CloneExpr(st.Bound), Unit: st.Unit, Body: CloneBlock(st.Body), Pos: st.Pos}
	case *Return:
		return &Return{Value: CloneExpr(st.Value), Pos: st.Pos}
	case *ExprStmt:
		return &ExprStmt{X: CloneExpr(st.X), Pos: st.Pos}
	case *Barrier:
		return &Barrier{Pos: st.Pos}
	default:
		panic("mcpl: unknown statement in clone")
	}
}

// CloneExpr deep-copies an expression; nil maps to nil.
func CloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Ident:
		return &Ident{Name: x.Name, Pos: x.Pos}
	case *IntLit:
		return &IntLit{Value: x.Value, Pos: x.Pos}
	case *FloatLit:
		return &FloatLit{Value: x.Value, Pos: x.Pos}
	case *BoolLit:
		return &BoolLit{Value: x.Value, Pos: x.Pos}
	case *Binary:
		return &Binary{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R), Pos: x.Pos}
	case *Unary:
		return &Unary{Op: x.Op, X: CloneExpr(x.X), Pos: x.Pos}
	case *Cast:
		return &Cast{To: cloneType(x.To), X: CloneExpr(x.X), Pos: x.Pos}
	case *Cond:
		return &Cond{C: CloneExpr(x.C), T: CloneExpr(x.T), F: CloneExpr(x.F), Pos: x.Pos}
	case *Index:
		ni := &Index{Array: CloneExpr(x.Array), Pos: x.Pos}
		for _, a := range x.Args {
			ni.Args = append(ni.Args, CloneExpr(a))
		}
		return ni
	case *Call:
		nc := &Call{Name: x.Name, Pos: x.Pos}
		for _, a := range x.Args {
			nc.Args = append(nc.Args, CloneExpr(a))
		}
		return nc
	default:
		panic("mcpl: unknown expression in clone")
	}
}
