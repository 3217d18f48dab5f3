package main

import (
	"encoding/json"
	"os"
	"time"
)

// tracer keeps the spans of a traced run in memory: one span around every
// call into a layer's public function, nested under the pass that made it.
// A nil tracer records nothing.
type tracer struct {
	origin time.Time
	run    string // workload-run id stamped on new spans
	spans  []span
	open   []int // ids of the spans not yet ended, innermost last
}

type span struct {
	ID, Parent int
	Name, Run  string
	Start, End time.Duration
}

// begin opens a span and returns the function that ends it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id := len(t.spans) + 1
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id-1].End = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto): complete events in microseconds on one thread, so nesting
// shows as the call structure.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: "layer", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
