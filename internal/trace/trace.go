// Package trace is the unified observability layer of the reproduction: a
// structured, low-overhead event/span/counter API keyed on virtual time.
//
// Every instrumented layer (simnet scheduling, network links, the Satin
// work-stealing runtime, the ocl device runtime) records into a *Recorder:
//
//   - Spans — intervals of virtual time with a node, a lane ("queue"), a
//     Kind and optional key=value attributes. Spans are what the Gantt
//     charts of Figs. 16/17 render and what the Chrome trace_event exporter
//     turns into Perfetto tracks.
//   - Counters — monotonically accumulating named values (bytes sent,
//     steals, kernel launches). Every CounterAdd appends a cumulative
//     sample, so exporters can show counters over virtual time.
//   - Gauges — instantaneous named values (deque depth, event-queue depth).
//
// Zero-cost-when-off contract: a nil *Recorder is valid and every method
// no-ops on it after a single nil check, so instrumentation can stay inline
// on hot paths without conditional code at call sites. The message-rate and
// event-loop benchmarks pin this at 0 allocs/op with tracing disabled;
// BenchmarkTraceOverhead quantifies the enabled cost.
//
// A Recorder is confined to one simulation (simnet serializes all processes
// of a kernel), so it needs no internal locking; concurrent simulations in
// the parallel experiment harness each own a private Recorder.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"cashmere/internal/simnet"
)

// Kind classifies a span, mirroring the activity classes visible in the
// paper's Gantt charts.
type Kind string

const (
	KindKernel Kind = "kernel" // kernel execution on a many-core device
	KindH2D    Kind = "h2d"    // host-to-device transfer over PCIe
	KindD2H    Kind = "d2h"    // device-to-host transfer over PCIe
	KindSend   Kind = "send"   // inter-node network send
	KindRecv   Kind = "recv"   // inter-node network receive
	KindCPU    Kind = "cpu"    // CPU-side task (job management, leaf on CPU)
	KindSteal  Kind = "steal"  // work-stealing protocol activity
	KindSched  Kind = "sched"  // simulation-kernel scheduling slice
	KindFault  Kind = "fault"  // SVM demand-fault service (page migrations)
)

// Attr is one key=value annotation on a span, exported as a Chrome
// trace_event argument.
type Attr struct {
	Key string
	Val string
}

// Int64Attr builds an integer-valued attribute.
func Int64Attr(key string, v int64) Attr { return Attr{Key: key, Val: fmt.Sprintf("%d", v)} }

// Span is one bar on the Gantt chart.
type Span struct {
	Node  int    // cluster node, or NodeKernel for simulation-kernel lanes
	Queue string // lane within the node, e.g. "q4" or a device name
	Kind  Kind
	Label string
	Start simnet.Time
	End   simnet.Time
	Attrs []Attr
}

// NodeKernel is the pseudo-node of lanes that belong to the simulation
// kernel itself (scheduler slices) rather than to a cluster node.
const NodeKernel = -1

// counterSample is one cumulative observation of a named counter (or one
// instantaneous observation of a gauge).
type counterSample struct {
	name string
	node int
	t    simnet.Time
	v    int64
}

// Recorder collects spans, counters and gauges. A nil *Recorder is valid
// and discards everything, so tracing can be disabled without conditional
// code at every call site.
type Recorder struct {
	spans    []Span
	counters []counterSample // cumulative values, appended per CounterAdd
	gauges   []counterSample // instantaneous values, appended per GaugeSet
	totals   map[string]int64
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// FromSpans builds a recorder over an existing span set (e.g. a filtered
// subset of another recorder).
func FromSpans(spans []Span) *Recorder { return &Recorder{spans: spans} }

// Enabled reports whether the recorder actually records (i.e. is non-nil).
// Call sites that must build labels or attributes before recording use it
// to skip that work when tracing is off.
func (r *Recorder) Enabled() bool { return r != nil }

// Add records a span. No-op on a nil recorder.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, s)
}

// CounterAdd accumulates delta into the named per-node counter at virtual
// time t and records the new cumulative value as a sample. Counter names
// use dotted lower-case ("net.bytes_out", "satin.steals_ok").
func (r *Recorder) CounterAdd(node int, name string, t simnet.Time, delta int64) {
	if r == nil {
		return
	}
	if r.totals == nil {
		r.totals = make(map[string]int64)
	}
	key := counterKey(node, name)
	r.totals[key] += delta
	r.counters = append(r.counters, counterSample{name: name, node: node, t: t, v: r.totals[key]})
}

// GaugeSet records an instantaneous observation of the named per-node gauge.
func (r *Recorder) GaugeSet(node int, name string, t simnet.Time, v int64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, counterSample{name: name, node: node, t: t, v: v})
}

func counterKey(node int, name string) string {
	return fmt.Sprintf("%d/%s", node, name)
}

// Spans returns all recorded spans sorted by start time.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len reports the number of recorded spans. Works on nil.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// Samples reports the number of recorded counter and gauge samples. Works
// on nil.
func (r *Recorder) Samples() int {
	if r == nil {
		return 0
	}
	return len(r.counters) + len(r.gauges)
}

// Filter returns the spans for which keep returns true.
func (r *Recorder) Filter(keep func(Span) bool) []Span {
	var out []Span
	for _, s := range r.Spans() {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// Window reports the [earliest start, latest end] interval covered by the
// spans for which keep returns true (nil keep selects all spans). ok is
// false when no span matches.
func (r *Recorder) Window(keep func(Span) bool) (from, to simnet.Time, ok bool) {
	for _, s := range r.Spans() {
		if keep != nil && !keep(s) {
			continue
		}
		if !ok || s.Start < from {
			from = s.Start
		}
		if s.End > to {
			to = s.End
		}
		ok = true
	}
	return from, to, ok
}

// FirstOfKind returns the earliest-starting span of the given kind.
func (r *Recorder) FirstOfKind(k Kind) (Span, bool) {
	for _, s := range r.Spans() {
		if s.Kind == k {
			return s, true
		}
	}
	return Span{}, false
}

// GanttOptions controls ASCII rendering.
type GanttOptions struct {
	Width      int // chart width in characters (default 100)
	From, To   simnet.Time
	KernelOnly bool // Fig. 17 mode: drop everything but kernel executions
}

// Gantt renders an ASCII Gantt chart. Lanes are (node, queue) pairs sorted
// by node then queue. Kernel executions render as '#', transfers as '=',
// CPU/steal activity as '-', matching the paper's wide-vs-narrow bars.
func (r *Recorder) Gantt(opt GanttOptions) string {
	spans := r.Spans()
	if opt.KernelOnly {
		var ks []Span
		for _, s := range spans {
			if s.Kind == KindKernel {
				ks = append(ks, s)
			}
		}
		spans = ks
	}
	if len(spans) == 0 {
		return "(no spans)\n"
	}
	if opt.Width <= 0 {
		opt.Width = 100
	}
	from, to := opt.From, opt.To
	if to == 0 {
		for _, s := range spans {
			if s.End > to {
				to = s.End
			}
		}
	}
	if to <= from {
		return "(empty window)\n"
	}

	type laneKey struct {
		node  int
		queue string
	}
	lanes := map[laneKey][]Span{}
	var keys []laneKey
	for _, s := range spans {
		if s.End <= from || s.Start >= to {
			continue
		}
		k := laneKey{s.Node, s.Queue}
		if _, seen := lanes[k]; !seen {
			keys = append(keys, k)
		}
		lanes[k] = append(lanes[k], s)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return keys[i].queue < keys[j].queue
	})

	glyph := func(k Kind) byte {
		switch k {
		case KindKernel:
			return '#'
		case KindH2D, KindD2H, KindSend, KindRecv:
			return '='
		case KindFault:
			return '~'
		default:
			return '-'
		}
	}

	span := float64(to - from)
	var b strings.Builder
	fmt.Fprintf(&b, "time window: %v .. %v\n", from, to)
	label := func(k laneKey) string { return fmt.Sprintf("n%02d %-10s", k.node, k.queue) }
	for _, k := range keys {
		row := make([]byte, opt.Width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range lanes[k] {
			a := int(float64(s.Start-from) / span * float64(opt.Width))
			z := int(float64(s.End-from) / span * float64(opt.Width))
			if a < 0 {
				a = 0
			}
			if z > opt.Width {
				z = opt.Width
			}
			if z <= a {
				z = a + 1
			}
			if z > opt.Width {
				z = opt.Width
				a = z - 1
			}
			g := glyph(s.Kind)
			for i := a; i < z; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&b, "%s |%s|\n", label(k), row)
	}
	b.WriteString("legend: # kernel   = transfer (pcie/network)   - cpu/steal   ~ svm fault\n")
	return b.String()
}
