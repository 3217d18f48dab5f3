package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func chromeSample() *Recorder {
	r := sample()
	r.Add(Span{Node: NodeKernel, Queue: "p001", Kind: KindSched, Label: "worker", Start: ms(1), End: ms(3)})
	r.Add(Span{Node: 1, Queue: "net.tx", Kind: KindSend, Label: "steal_reply", Start: ms(12), End: ms(14),
		Attrs: []Attr{Int64Attr("bytes", 65536), {Key: "to", Val: "0"}}})
	r.CounterAdd(0, "net.bytes_out", ms(12), 65536)
	r.CounterAdd(0, "net.bytes_out", ms(20), 1024)
	r.GaugeSet(1, "satin.queue_depth", ms(6), 4)
	return r
}

// TestChromeTraceGolden pins the exporter's exact output format. The golden
// file loads in Perfetto / chrome://tracing; regenerate with go test -update.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := chromeSample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace output drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := chromeSample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var meta, complete, counters int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
		case "C":
			counters++
			if _, ok := e.Args["value"].(float64); !ok {
				t.Fatalf("counter %q has non-numeric value: %v", e.Name, e.Args["value"])
			}
		}
	}
	// 4 sample spans + 1 sched + 1 send; 2 counter samples + 1 gauge.
	if complete != 6 || counters != 3 || meta == 0 {
		t.Fatalf("events: meta=%d complete=%d counters=%d", meta, complete, counters)
	}
}

func TestChromeTracePidMapping(t *testing.T) {
	var buf bytes.Buffer
	if err := chromeSample().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`{"name":"process_name","ph":"M","pid":0,"tid":0,"ts":0,"args":{"name":"simnet"}}`,
		`{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"node 0"}}`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("missing %s in:\n%s", want, out)
		}
	}
}

func TestChromeTraceEmptyRecorder(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON for empty recorder: %v\n%s", err, buf.String())
	}
}
