package feedback

import (
	"strings"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/mcpl"
)

const matmulPerfect = `
perfect void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
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

const matmulGPU = `
gpu void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int bi in n / 16 blocks) {
    foreach (int bj in m / 16 blocks) {
      local float[16,16] ta;
      local float[16,16] tb;
      foreach (int ti in 16 threads) {
        foreach (int tj in 16 threads) {
          float sum = 0.0;
          for (int t = 0; t < p / 16; t++) {
            ta[ti,tj] = a[bi * 16 + ti, t * 16 + tj];
            tb[ti,tj] = b[t * 16 + ti, bj * 16 + tj];
            barrier();
            for (int k = 0; k < 16; k++) {
              sum += ta[ti,k] * tb[k,tj];
            }
            barrier();
          }
          c[bi * 16 + ti, bj * 16 + tj] += sum;
        }
      }
    }
  }
}
`

func prog(t *testing.T, src string) *mcpl.Info {
	t.Helper()
	p, err := mcpl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := mcpl.Check(p)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func lv(t *testing.T, name string) *hdl.Level {
	t.Helper()
	l, err := hdl.Library().Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

var matmulParams = map[string]int64{"n": 2048, "m": 2048, "p": 2048}

func TestNoFeedbackAtPerfect(t *testing.T) {
	// Stepwise refinement starts at perfect, where the idealized hardware
	// yields no feedback.
	msgs, err := Generate(prog(t, matmulPerfect), "matmul", matmulParams, lv(t, "perfect"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 0 {
		t.Fatalf("messages at perfect: %v", msgs)
	}
}

func TestGPUFeedbackSuggestsLocalMemory(t *testing.T) {
	// Moving to level gpu, the compiler points at the k-loop reload of a,
	// the hint that leads to the tiled version.
	msgs, err := Generate(prog(t, matmulPerfect), "matmul", matmulParams, lv(t, "gpu"), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range msgs {
		if m.Rule == "local-memory" && strings.Contains(m.Text, `"a"`) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no local-memory suggestion in %v", msgs)
	}
}

func TestTiledKernelSilencesLocalMemoryRule(t *testing.T) {
	msgs, err := Generate(prog(t, matmulGPU), "matmul", matmulParams, lv(t, "gpu"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.Rule == "local-memory" || m.Rule == "coalescing" {
			t.Fatalf("tiled kernel still gets %v", m)
		}
	}
}

func TestCoalescingProblemReported(t *testing.T) {
	src := `
gpu void badread(int n, int m, float[n,m] a, float[m,n] out) {
  foreach (int j in m threads) {
    foreach (int i in n threads) {
      out[j,i] = a[i,j];
    }
  }
}`
	msgs, err := Generate(prog(t, src), "badread", map[string]int64{"n": 512, "m": 512}, lv(t, "gpu"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if Count(msgs, Problem) == 0 {
		t.Fatalf("no coalescing problem in %v", msgs)
	}
}

func TestDivergenceWarning(t *testing.T) {
	src := `
perfect void diverge(int n, float[n] a, float[n] out) {
  foreach (int i in n threads) {
    float x = a[i];
    float acc = 0.0;
    @expect(20) while (x > 0.01) {
      if (x > 0.5) { acc += x * x * x; } else { acc += x; }
      x = x * 0.7;
    }
    out[i] = acc;
  }
}`
	msgs, err := Generate(prog(t, src), "diverge", map[string]int64{"n": 1 << 20}, lv(t, "gpu"), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range msgs {
		if m.Rule == "divergence" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no divergence warning in %v", msgs)
	}
}

func TestLocalCapacityProblem(t *testing.T) {
	// gpu's base local memory is 16K; 128x128 floats = 64K overflows it.
	src := `
gpu void big(int n, float[n] a) {
  foreach (int b in n / 128 blocks) {
    local float[128,128] tile;
    foreach (int t in 128 threads) {
      tile[t,0] = a[t];
      barrier();
      a[t] = tile[0,t];
    }
  }
}`
	msgs, err := Generate(prog(t, src), "big", map[string]int64{"n": 1 << 20}, lv(t, "gpu"), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range msgs {
		if m.Rule == "local-capacity" && m.Severity == Problem {
			found = true
		}
	}
	if !found {
		t.Fatalf("no local-capacity problem in %v", msgs)
	}
	// The same kernel fits on hd7970 (64K local memory).
	msgs, err = Generate(prog(t, src), "big", map[string]int64{"n": 1 << 20}, lv(t, "hd7970"), device.Catalog()["hd7970"])
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if m.Rule == "local-capacity" {
			t.Fatalf("hd7970 should fit the tile: %v", m)
		}
	}
}

func TestOccupancyWarningWithDevice(t *testing.T) {
	msgs, err := Generate(prog(t, matmulPerfect), "matmul",
		map[string]int64{"n": 16, "m": 16, "p": 16}, lv(t, "gtx480"), device.Catalog()["gtx480"])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range msgs {
		if m.Rule == "occupancy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tiny launch got no occupancy warning: %v", msgs)
	}
}

func TestMessageFormatting(t *testing.T) {
	m := Message{Pos: mcpl.Pos{Line: 3, Col: 7}, Severity: Warning, Rule: "divergence", Text: "x"}
	s := m.String()
	if !strings.Contains(s, "3:7") || !strings.Contains(s, "warning") || !strings.Contains(s, "divergence") {
		t.Fatalf("String = %q", s)
	}
}

func TestCountBySeverity(t *testing.T) {
	msgs := []Message{{Severity: Info}, {Severity: Warning}, {Severity: Problem}}
	if Count(msgs, Info) != 3 || Count(msgs, Warning) != 2 || Count(msgs, Problem) != 1 {
		t.Fatal("Count wrong")
	}
}

func TestEmptyParamsMap(t *testing.T) {
	// The tuner calls Generate with whatever parameters the request carries.
	// An empty (or nil) map on a kernel with scalar parameters must yield a
	// descriptive error naming the missing parameter — never a panic — so
	// the tuner can skip feedback scoring and keep searching.
	for _, params := range []map[string]int64{{}, nil} {
		_, err := Generate(prog(t, matmulPerfect), "matmul", params, lv(t, "gpu"), nil)
		if err == nil {
			t.Fatalf("params=%v: missing scalar parameters accepted", params)
		}
		if !strings.Contains(err.Error(), `"n"`) {
			t.Fatalf("params=%v: error %q does not name the parameter", params, err)
		}
	}
	// A kernel without scalar parameters tolerates an empty map outright.
	src := `
perfect void fill(float[1024] a) {
  foreach (int i in 1024 threads) {
    a[i] = 0.0;
  }
}`
	if _, err := Generate(prog(t, src), "fill", map[string]int64{}, lv(t, "gpu"), nil); err != nil {
		t.Fatalf("scalar-free kernel rejected empty params: %v", err)
	}
	// At perfect there is nothing to analyze, so even missing parameters
	// cannot fail.
	if msgs, err := Generate(prog(t, matmulPerfect), "matmul", nil, lv(t, "perfect"), nil); err != nil || len(msgs) != 0 {
		t.Fatalf("perfect with nil params: msgs=%v err=%v", msgs, err)
	}
}

func TestCountSeverityOrdering(t *testing.T) {
	// Count(msgs, min) is a cumulative tail count: Info <= Warning <=
	// Problem must hold for any message mix, and a nil slice counts zero.
	msgs := []Message{
		{Severity: Problem}, {Severity: Info}, {Severity: Warning},
		{Severity: Warning}, {Severity: Info},
	}
	if got := Count(msgs, Info); got != 5 {
		t.Fatalf("Count(Info) = %d", got)
	}
	if got := Count(msgs, Warning); got != 3 {
		t.Fatalf("Count(Warning) = %d", got)
	}
	if got := Count(msgs, Problem); got != 1 {
		t.Fatalf("Count(Problem) = %d", got)
	}
	if Count(nil, Info) != 0 || Count(nil, Problem) != 0 {
		t.Fatal("nil slice counted messages")
	}
}

func TestUnknownKernel(t *testing.T) {
	if _, err := Generate(prog(t, matmulPerfect), "nope", nil, lv(t, "gpu"), nil); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}
