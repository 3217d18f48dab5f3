package mcpl

import (
	"strings"
	"testing"
)

// matmulSrc is the matrix multiplication kernel of Fig. 3 of the paper,
// verbatim except for formatting.
const matmulSrc = `
perfect void matmul(int n, int m, int p,
    float[n,m] c,
    float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}
`

func TestLexMatmul(t *testing.T) {
	toks, err := Lex(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Fatal("missing EOF token")
	}
	// First tokens: ident "perfect", keyword "void", ident "matmul".
	if toks[0].Text != "perfect" || toks[0].Kind != TokIdent {
		t.Fatalf("tok0 = %v", toks[0])
	}
	if toks[1].Text != "void" || toks[1].Kind != TokKeyword {
		t.Fatalf("tok1 = %v", toks[1])
	}
}

func TestLexNumbersAndComments(t *testing.T) {
	toks, err := Lex("1 2.5 1e3 7f 0.5f 3e-2 // comment\n /* block\n */ x")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tk := range toks[:len(toks)-1] {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	wantKinds := []TokKind{TokIntLit, TokFloatLit, TokFloatLit, TokFloatLit, TokFloatLit, TokFloatLit, TokIdent}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("token %d (%q) kind = %d, want %d", i, texts[i], kinds[i], wantKinds[i])
		}
	}
}

// TestLexErrors pins the text of each lexer diagnostic.
func TestLexErrors(t *testing.T) {
	for src, want := range map[string]string{
		"$":                                    `1:1: unexpected character "$"`,
		"int x = 1 $ 2;":                       `1:11: unexpected character "$"`,
		"/* unterminated":                      "1:1: unterminated block comment",
		"int x; /* unterminated block comment": "1:8: unterminated block comment",
	} {
		if _, err := Lex(src); err == nil || err.Error() != want {
			t.Errorf("Lex(%q): err = %v, want %s", src, err, want)
		}
	}
}

func TestParseMatmulShape(t *testing.T) {
	prog, err := Parse(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("matmul")
	if k == nil {
		t.Fatal("kernel matmul not found")
	}
	if k.Level != "perfect" {
		t.Fatalf("level = %q", k.Level)
	}
	if len(k.Params) != 6 {
		t.Fatalf("params = %d", len(k.Params))
	}
	if !k.Params[3].Type.IsArray() || len(k.Params[3].Type.Dims) != 2 {
		t.Fatalf("param c type = %v", k.Params[3].Type)
	}
	fe, ok := k.Body.Stmts[0].(*Foreach)
	if !ok {
		t.Fatalf("first stmt = %T", k.Body.Stmts[0])
	}
	if fe.Var != "i" || fe.Unit != "threads" {
		t.Fatalf("foreach = %+v", fe)
	}
	inner, ok := fe.Body.Stmts[0].(*Foreach)
	if !ok || inner.Var != "j" {
		t.Fatalf("inner = %+v", fe.Body.Stmts[0])
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := MustParse(`int f(int a, int b, int c) { return a + b * c; }`)
	ret := prog.Funcs[0].Body.Stmts[0].(*Return)
	bin := ret.Value.(*Binary)
	if bin.Op != "+" {
		t.Fatalf("top op = %s, want +", bin.Op)
	}
	if r, ok := bin.R.(*Binary); !ok || r.Op != "*" {
		t.Fatalf("rhs = %s", ExprString(bin.R))
	}
}

func TestParseTernaryCastBitops(t *testing.T) {
	prog := MustParse(`
int g(int x, float f) {
  int y = (x << 3) ^ (x >> 1) & 255;
  int z = x > 0 ? y : -y;
  int w = (int)f;
  float h = (float)x * 0.5;
  return z + w + (int)h;
}`)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
}

func TestParseExpectAttribute(t *testing.T) {
	prog := MustParse(`
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = a[i];
    @expect(8) while (x > 1.0) {
      x = x * 0.5;
    }
    a[i] = x;
  }
}`)
	fe := prog.Funcs[0].Body.Stmts[0].(*Foreach)
	w := fe.Body.Stmts[1].(*While)
	if w.Expect == nil {
		t.Fatal("@expect hint lost")
	}
	if v, ok := w.Expect.(*IntLit); !ok || v.Value != 8 {
		t.Fatalf("expect = %s", ExprString(w.Expect))
	}
}

func TestParseBarrierStatement(t *testing.T) {
	prog := MustParse(`
gpu void k(int n, float[n] a) {
  foreach (int b in n blocks) {
    local float[16] tile;
    foreach (int t in 16 threads) {
      tile[t] = a[t];
      barrier();
      a[t] = tile[15 - t];
    }
  }
}`)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
	fe := prog.Funcs[0].Body.Stmts[0].(*Foreach)
	inner := fe.Body.Stmts[1].(*Foreach)
	if _, ok := inner.Body.Stmts[1].(*Barrier); !ok {
		t.Fatalf("stmt1 = %T, want Barrier", inner.Body.Stmts[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"perfect void k(int n) { foreach (float i in n threads) {} }",
		"int f( { }",
		"int f() { return 1 }",           // missing semicolon
		"int f() { 1 + ; }",              // bad expression
		"void f() { @expect(3) x = 1; }", // expect without loop
		"int f() { if (1) {} }",          // non-boolean condition caught at check; parse ok
	}
	for _, src := range cases[:5] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse succeeded on %q", src)
		}
	}
}

func TestCheckMatmul(t *testing.T) {
	prog := MustParse(matmulSrc)
	info, err := Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	// The sum accumulator is float.
	fe := prog.Kernel("matmul").Body.Stmts[0].(*Foreach)
	inner := fe.Body.Stmts[0].(*Foreach)
	decl := inner.Body.Stmts[0].(*VarDecl)
	if decl.Type.Kind != KindFloat {
		t.Fatalf("sum type = %v", decl.Type)
	}
	if info.Prog != prog {
		t.Fatal("info.Prog not set")
	}
}

func TestCheckErrors(t *testing.T) {
	cases := map[string]string{
		"undefined variable": `int f() { return x; }`,
		"redeclared":         `int f(int x) { int x = 1; return x; }`,
		"rank mismatch":      `perfect void k(int n, float[n,n] a) { foreach (int i in n threads) { a[i] = 0.0; } }`,
		"non-int subscript":  `perfect void k(int n, float[n] a) { foreach (int i in n threads) { a[0.5] = 0.0; } }`,
		"assign to loop var": `perfect void k(int n, float[n] a) { foreach (int i in n threads) { i = 3; } }`,
		"float to int":       `int f(float x) { int y = x; return y; }`,
		"bool arithmetic":    `int f() { return 1 + true; }`,
		"kernel returns":     `perfect int k(int n) { return n; }`,
		"call kernel":        `perfect void k(int n) { } int f(int n) { k(n); return 0; }`,
		"barrier outside":    `int f() { barrier(); return 0; }`,
		"foreach in helper":  `int f(int n) { foreach (int i in n threads) { } return 0; }`,
		"bad builtin arity":  `float f(float x) { return pow(x); }`,
		"shadow builtin":     `float sqrt(float x) { return x; }`,
		"void variable":      `int f() { void v; return 0; }`,
		"array initializer":  `int f(int n) { float[n] a = 0.0; return 0; }`,
		"if non-boolean":     `int f(int n) { if (n) { } return 0; }`,
		"mod on float":       `float f(float x) { return x % 2.0; }`,
		"assign whole array": `perfect void k(int n, float[n] a, float[n] b) { foreach (int i in n threads) { } a = b; }`,
	}
	for name, src := range cases {
		prog, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also acceptable for some cases
		}
		if _, err := Check(prog); err == nil {
			t.Errorf("%s: Check succeeded on %q", name, src)
		}
	}
}

func TestCheckIntToFloatPromotion(t *testing.T) {
	prog := MustParse(`float f(int n) { float x = n; return x + n * 2; }`)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
}

func TestHelperFunctionCalls(t *testing.T) {
	prog := MustParse(`
float sq(float x) { return x * x; }
perfect void k(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = sq(a[i]) + sqrt(fabs(a[i]));
  }
}`)
	if _, err := Check(prog); err != nil {
		t.Fatal(err)
	}
}

func TestExprString(t *testing.T) {
	prog := MustParse(`int f(int a, int b) { return (a + b) * 2; }`)
	ret := prog.Funcs[0].Body.Stmts[0].(*Return)
	s := ExprString(ret.Value)
	if !strings.Contains(s, "+") || !strings.Contains(s, "*") {
		t.Fatalf("ExprString = %q", s)
	}
}

func TestTypeString(t *testing.T) {
	prog := MustParse(matmulSrc)
	ty := prog.Kernel("matmul").Params[3].Type
	if got := ty.String(); got != "float[n,m]" {
		t.Fatalf("Type.String = %q", got)
	}
	if ty.ElemSize() != 4 {
		t.Fatalf("ElemSize = %d", ty.ElemSize())
	}
}
