package trace

import (
	"testing"

	"cashmere/internal/simnet"
)

// BenchmarkTraceOverhead quantifies the zero-cost-when-off contract: the
// "off" cases exercise the exact instrumentation call sequence hot paths use
// (Enabled check, Add, CounterAdd, GaugeSet) against a nil recorder and
// must stay at 0 allocs/op; the "on" cases measure the enabled recording cost
// that -trace runs pay.
func BenchmarkTraceOverhead(b *testing.B) {
	instrument := func(r *Recorder, i int) {
		t := simnet.Time(i)
		if r.Enabled() {
			r.Add(Span{Queue: "q0", Kind: KindCPU, Label: "job", Start: t, End: t + 1,
				Attrs: []Attr{Int64Attr("bytes", int64(i))}})
		}
		r.CounterAdd(0, "satin.spawns", t, 1)
		r.GaugeSet(0, "satin.queue_depth", t, int64(i&7))
	}
	b.Run("off", func(b *testing.B) {
		var r *Recorder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			instrument(r, i)
		}
	})
	b.Run("off/span-only", func(b *testing.B) {
		var r *Recorder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Add(Span{Queue: "q0", Kind: KindCPU, Label: "job", Start: simnet.Time(i), End: simnet.Time(i + 1)})
		}
	})
	b.Run("on", func(b *testing.B) {
		r := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			instrument(r, i)
		}
	})
}
