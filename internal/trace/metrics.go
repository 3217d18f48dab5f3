package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Metrics is a flat, ordered collection of named measurements gathered at
// the end of a run: final counter values, gauge extremes, and derived
// ratios. Each instrumented layer contributes entries under its own prefix
// ("simnet.", "net.", "satin.", "mcl."); the text dump is the plain-text
// metrics exporter behind the -metrics flag.
type Metrics struct {
	entries map[string]metricValue
}

type metricValue struct {
	v     float64
	isInt bool
	unit  string
}

// NewMetrics returns an empty metrics set.
func NewMetrics() *Metrics { return &Metrics{entries: map[string]metricValue{}} }

// SetInt records an integer-valued measurement.
func (m *Metrics) SetInt(name string, v int64) {
	m.entries[name] = metricValue{v: float64(v), isInt: true}
}

// SetFloat records a float-valued measurement with an optional unit suffix.
func (m *Metrics) SetFloat(name string, v float64, unit string) {
	m.entries[name] = metricValue{v: v, unit: unit}
}

// Int reads an integer-valued measurement (0 when absent).
func (m *Metrics) Int(name string) int64 { return int64(m.entries[name].v) }

// Float reads a measurement's value (0 when absent).
func (m *Metrics) Float(name string) float64 { return m.entries[name].v }

// Has reports whether the named measurement exists.
func (m *Metrics) Has(name string) bool {
	_, ok := m.entries[name]
	return ok
}

// Len reports the number of measurements.
func (m *Metrics) Len() int { return len(m.entries) }

// Names returns all measurement names sorted.
func (m *Metrics) Names() []string {
	names := make([]string, 0, len(m.entries))
	for n := range m.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MergeCounters copies the recorder's final per-node counter totals into
// the metrics set, both per node ("<name>.node<i>") and summed ("<name>").
// A summed name overwrites any same-named entry already in the set, so
// layers may pre-populate the same statistic for runs without tracing.
func (m *Metrics) MergeCounters(r *Recorder) {
	if r == nil {
		return
	}
	sums := map[string]int64{}
	for key, v := range r.totals {
		var node int
		var name string
		if _, err := fmt.Sscanf(key, "%d/", &node); err == nil {
			name = key[strings.Index(key, "/")+1:]
		} else {
			name = key
		}
		sums[name] += v
		if node != NodeKernel {
			m.SetInt(fmt.Sprintf("%s.node%d", name, node), v)
		}
	}
	for name, v := range sums {
		m.SetInt(name, v)
	}
}

// Format renders the metrics as sorted "name value [unit]" lines.
func (m *Metrics) Format() string {
	var b strings.Builder
	b.WriteString("== metrics ==\n")
	for _, name := range m.Names() {
		mv := m.entries[name]
		if mv.isInt {
			fmt.Fprintf(&b, "%-44s %d\n", name, int64(mv.v))
		} else if mv.unit != "" {
			fmt.Fprintf(&b, "%-44s %.6g %s\n", name, mv.v, mv.unit)
		} else {
			fmt.Fprintf(&b, "%-44s %.6g\n", name, mv.v)
		}
	}
	return b.String()
}
