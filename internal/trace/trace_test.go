package trace

import (
	"strings"
	"testing"
	"time"

	"cashmere/internal/simnet"
)

func ms(n int) simnet.Time { return simnet.Time(time.Duration(n) * time.Millisecond) }

func sample() *Recorder {
	r := New()
	r.Add(Span{Node: 0, Queue: "q4", Kind: KindKernel, Label: "kmeans", Start: ms(10), End: ms(40)})
	r.Add(Span{Node: 0, Queue: "q1", Kind: KindH2D, Label: "points", Start: ms(0), End: ms(10)})
	r.Add(Span{Node: 1, Queue: "q4", Kind: KindKernel, Label: "kmeans", Start: ms(5), End: ms(50)})
	r.Add(Span{Node: 1, Queue: "q0", Kind: KindCPU, Label: "spawn", Start: ms(0), End: ms(2)})
	return r
}

func TestSpansSortedByStart(t *testing.T) {
	spans := sample().Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatalf("spans not sorted: %v", spans)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Span{})
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder misbehaved")
	}
}

func TestFilter(t *testing.T) {
	r := sample()
	k := r.Filter(func(s Span) bool { return s.Kind == KindKernel })
	if len(k) != 2 {
		t.Fatalf("filtered %d kernel spans, want 2", len(k))
	}
}

func TestGanttRendersLanes(t *testing.T) {
	g := sample().Gantt(GanttOptions{Width: 50})
	if !strings.Contains(g, "n00 q4") || !strings.Contains(g, "n01 q0") {
		t.Fatalf("missing lanes:\n%s", g)
	}
	if !strings.Contains(g, "#") || !strings.Contains(g, "=") || !strings.Contains(g, "-") {
		t.Fatalf("missing glyph classes:\n%s", g)
	}
}

func TestGanttKernelOnlyMode(t *testing.T) {
	g := sample().Gantt(GanttOptions{Width: 50, KernelOnly: true})
	if strings.Contains(g, "n01 q0") {
		t.Fatalf("kernel-only chart contains non-kernel lane:\n%s", g)
	}
	for _, line := range strings.Split(g, "\n") {
		if strings.HasPrefix(line, "legend") {
			continue
		}
		if strings.ContainsAny(line, "=-") {
			t.Fatalf("kernel-only chart contains non-kernel bars:\n%s", g)
		}
	}
	if !strings.Contains(g, "#") {
		t.Fatalf("kernel-only chart lost kernels:\n%s", g)
	}
}

func TestGanttWindowClipping(t *testing.T) {
	g := sample().Gantt(GanttOptions{Width: 50, From: ms(45), To: ms(50)})
	// Only node 1's kernel overlaps [45,50).
	if strings.Contains(g, "n00") {
		t.Fatalf("clipped window still shows node 0:\n%s", g)
	}
}

func TestGanttEmpty(t *testing.T) {
	if g := New().Gantt(GanttOptions{}); !strings.Contains(g, "no spans") {
		t.Fatalf("empty gantt = %q", g)
	}
	r := sample()
	if g := r.Gantt(GanttOptions{From: ms(100), To: ms(90)}); !strings.Contains(g, "empty window") {
		t.Fatalf("inverted window = %q", g)
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Start: ms(10), End: ms(25)}
	if s.Duration() != 15*time.Millisecond {
		t.Fatalf("Duration = %v", s.Duration())
	}
}
