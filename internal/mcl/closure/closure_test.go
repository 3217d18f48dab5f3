package closure_test

import (
	"strings"
	"testing"

	"cashmere/internal/mcl/closure"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/mcl/mcpl"
)

func compile(t *testing.T, src, kernel string) *closure.Kernel {
	t.Helper()
	prog, err := mcpl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := mcpl.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	k, err := closure.Compile(prog, kernel)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return k
}

// TestSequentialReduction checks that barrier-free foreach shares the
// enclosing frame, so reductions into outer scalars accumulate.
func TestSequentialReduction(t *testing.T) {
	k := compile(t, `
perfect void sum(int n, float[n] xs, float[1] out) {
  float acc = 0.0;
  foreach (int i in n threads) {
    acc += xs[i];
  }
  out[0] = acc;
}
`, "sum")
	xs := interp.NewFloatArray(5)
	for i := range xs.F {
		xs.F[i] = float64(i + 1)
	}
	out := interp.NewFloatArray(1)
	if err := k.Run(5, xs, out); err != nil {
		t.Fatal(err)
	}
	if out.F[0] != 15 {
		t.Fatalf("sum = %v, want 15", out.F[0])
	}
}

// TestHelperFunctions checks helper calls, including a recursive one and an
// array-mutating one (the raytracer's RNG idiom).
func TestHelperFunctions(t *testing.T) {
	k := compile(t, `
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
float bump(float[1] state) {
  state[0] += 1.0;
  return state[0];
}
perfect void kern(int n, int[n] fibs, float[1] state, float[n] seen) {
  foreach (int i in n threads) {
    fibs[i] = fib(i);
    seen[i] = bump(state);
  }
}
`, "kern")
	fibs := interp.NewIntArray(8)
	state := interp.NewFloatArray(1)
	seen := interp.NewFloatArray(8)
	if err := k.Run(8, fibs, state, seen); err != nil {
		t.Fatal(err)
	}
	wantFib := []int64{0, 1, 1, 2, 3, 5, 8, 13}
	for i, w := range wantFib {
		if fibs.I[i] != w {
			t.Errorf("fib(%d) = %d, want %d", i, fibs.I[i], w)
		}
	}
	for i := range seen.F {
		if seen.F[i] != float64(i+1) {
			t.Errorf("seen[%d] = %v, want %v (helper must mutate shared array)", i, seen.F[i], i+1)
		}
	}
}

// TestRuntimeErrors checks that hot-path failures surface as ordinary
// errors, matching the interpreter's messages in spirit.
func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, kernel, want string
		args                    []any
	}{
		{
			name: "index out of range",
			src: `perfect void k(int n, float[n] xs) {
  foreach (int i in n threads) { xs[i + 1] = 0.0; }
}`,
			kernel: "k", want: "out of range",
			args: []any{3, interp.NewFloatArray(3)},
		},
		{
			name: "division by zero",
			src: `perfect void k(int n, int[n] xs) {
  foreach (int i in n threads) { xs[i] = 1 / i; }
}`,
			kernel: "k", want: "division by zero",
			args: []any{3, interp.NewIntArray(3)},
		},
		{
			name: "dimension mismatch",
			src: `perfect void k(int n, float[n] xs) {
  foreach (int i in n threads) { xs[i] = 0.0; }
}`,
			kernel: "k", want: "dimension",
			args: []any{4, interp.NewFloatArray(3)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := compile(t, tc.src, tc.kernel)
			err := k.Run(tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParallelBarrierError checks that a failing thread aborts the whole
// work-group instead of deadlocking the barrier.
func TestParallelBarrierError(t *testing.T) {
	k := compile(t, `
perfect void k(int n, float[n] xs) {
  foreach (int i in n threads) {
    xs[i + n - 1] = 0.0;
    barrier();
    xs[i] = 1.0;
  }
}
`, "k")
	err := k.Run(4, interp.NewFloatArray(4))
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("err = %v, want index error", err)
	}
}

// TestUnsupportedFallbackConstruct checks that writing to a scalar declared
// outside a barrier-synchronized foreach — whose parallel semantics would be
// racy — is rejected with an error naming the assignment's position.
func TestUnsupportedFallbackConstruct(t *testing.T) {
	prog, err := mcpl.Parse(`
perfect void k(int n, float[n] xs) {
  float acc = 0.0;
  foreach (int i in n threads) {
    barrier();
    acc += xs[i];
  }
  xs[0] = acc;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcpl.Check(prog); err != nil {
		t.Fatal(err)
	}
	_, cerr := closure.Compile(prog, "k")
	const want = "closure: 6:5: assignment to scalar acc declared outside parallel foreach"
	if cerr == nil || cerr.Error() != want {
		t.Fatalf("Compile err = %v, want %q", cerr, want)
	}
}

// TestParallelPrivateScalars checks OpenCL work-group semantics: scalars
// declared inside a parallel foreach are thread-private, arrays declared
// outside (local memory) are shared across the group.
func TestParallelPrivateScalars(t *testing.T) {
	k := compile(t, `
perfect void k(int n, float[n] out) {
  float[1] shared;
  foreach (int i in n threads) {
    float mine = (float)i;
    if (i == 0) { shared[0] = 42.0; }
    barrier();
    out[i] = mine + shared[0];
  }
}
`, "k")
	out := interp.NewFloatArray(4)
	if err := k.Run(4, out); err != nil {
		t.Fatal(err)
	}
	for i := range out.F {
		if want := float64(i) + 42; out.F[i] != want {
			t.Errorf("out[%d] = %v, want %v", i, out.F[i], want)
		}
	}
}

// TestKernelNotFound checks the compile-time miss path.
func TestKernelNotFound(t *testing.T) {
	prog, err := mcpl.Parse(`perfect void k(int n) { foreach (int i in n threads) { } }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcpl.Check(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := closure.Compile(prog, "missing"); err == nil {
		t.Fatal("want error for missing kernel")
	}
}
