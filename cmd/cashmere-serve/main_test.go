package main

import (
	"testing"
	"time"

	"cashmere/internal/serve"
	"cashmere/internal/simnet"
)

// TestHeader: without a trace file the header reports -load; with one it
// reports the file's requests within the horizon, their rate and the
// rate's ratio to capacity, whatever -load says.
func TestHeader(t *testing.T) {
	if got, want := header(4, "gtx480", 2440, 0.8, nil, time.Second),
		"4 x gtx480, modeled capacity 2440 req/s, offered 0.80x"; got != want {
		t.Errorf("without a file:\n got %q\nwant %q", got, want)
	}
	ms := simnet.Duration(time.Millisecond)
	replayed := map[string][]serve.TraceEvent{
		"interactive": {{At: 1 * ms}, {At: 40 * ms}, {At: 500 * ms}},
		"batch":       {{At: 2 * ms, Class: 1}, {At: 501 * ms}}, // the last is past the horizon
	}
	if got, want := header(4, "gtx480", 2440, 0.8, replayed, 500*time.Millisecond),
		"4 x gtx480, modeled capacity 2440 req/s, replayed 4 requests (8 req/s, 0.00x)"; got != want {
		t.Errorf("with a file:\n got %q\nwant %q", got, want)
	}
	if got, want := header(2, "k20", 10, 0.8, replayed, time.Second),
		"2 x k20, modeled capacity 10 req/s, replayed 5 requests (5 req/s, 0.50x)"; got != want {
		t.Errorf("with a file:\n got %q\nwant %q", got, want)
	}
}
