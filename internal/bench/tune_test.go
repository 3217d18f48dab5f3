package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cashmere/internal/mcl/tune"
)

// runTuneSweep runs the full tuned-vs-hand-picked sweep once per test
// binary (it is deterministic, so sharing is safe).
var sweepPoints []TunePoint

func sweep(t *testing.T) []TunePoint {
	t.Helper()
	if sweepPoints != nil {
		return sweepPoints
	}
	pts, err := TuneSweep(TuneDevices, tune.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	sweepPoints = pts
	return pts
}

func TestTunedNeverSlowerThanHandPicked(t *testing.T) {
	// The acceptance gate of the auto-tuner: on every app kernel x device,
	// the tuned configuration matches or beats the hand-picked one. The
	// baseline always competes, so speedup >= 1.0 must hold exactly.
	pts := sweep(t)
	if want := len(AppNames) * len(TuneDevices); len(pts) != want {
		t.Fatalf("sweep produced %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.Speedup < 1.0 {
			t.Errorf("%s/%s: tuned %d ns slower than hand-picked %d ns (speedup %.3f)",
				p.App, p.Device, p.TunedNs, p.HandNs, p.Speedup)
		}
		if p.HandNs <= 0 || p.TunedNs <= 0 {
			t.Errorf("%s/%s: unpriced point %+v", p.App, p.Device, p)
		}
		if p.Pruned >= p.Evaluated {
			t.Errorf("%s/%s: no candidate survived pruning %+v", p.App, p.Device, p)
		}
	}
	// The search must actually win somewhere — a tuner that only ever ties
	// the default is vacuous.
	wins := 0
	for _, p := range pts {
		if p.Speedup > 1.0 {
			wins++
		}
	}
	if wins == 0 {
		t.Fatal("tuner never beat the hand-picked configuration on any kernel")
	}
}

func TestTuneTableFormat(t *testing.T) {
	s := FormatTuneTable(sweep(t))
	if !strings.Contains(s, "speedup") || !strings.Contains(s, "raytracer") {
		t.Fatalf("table malformed:\n%s", s)
	}
}

// TestCommittedTuningTableCurrent compares the committed BENCH_kernels.json
// "tuning" rows against a live sweep: the search is deterministic, so any
// drift means the committed table is stale and must be regenerated with
//
//	go run ./cmd/cashmere-bench -experiment tune
func TestCommittedTuningTableCurrent(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_kernels.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Tuning struct {
			Devices []string    `json:"devices"`
			Points  []TunePoint `json:"points"`
		} `json:"tuning"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Tuning.Devices, TuneDevices) {
		t.Fatalf("committed device list %v != %v", doc.Tuning.Devices, TuneDevices)
	}
	live := sweep(t)
	if len(doc.Tuning.Points) != len(live) {
		t.Fatalf("committed %d points, live %d", len(doc.Tuning.Points), len(live))
	}
	for i, p := range live {
		if !reflect.DeepEqual(doc.Tuning.Points[i], p) {
			t.Errorf("row %d stale:\ncommitted %+v\nlive      %+v", i, doc.Tuning.Points[i], p)
		}
	}
	for _, p := range doc.Tuning.Points {
		if p.Speedup < 1.0 {
			t.Errorf("committed row %s/%s has speedup %.3f < 1.0", p.App, p.Device, p.Speedup)
		}
	}
}
