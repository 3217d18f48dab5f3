package core

import (
	"testing"

	"cashmere/internal/satin"
	"cashmere/internal/trace"
)

func TestClusterRecordsLaunchSpans(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Record = true
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		return k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 1 << 20},
			InBytes: 4 << 20, OutBytes: 4 << 20,
		}).Run(ctx)
	})
	rec := cl.Recorder()
	if rec == nil {
		t.Fatal("no recorder despite Record: true")
	}
	var kern, h2d, d2h int
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindKernel:
			kern++
		case trace.KindH2D:
			h2d++
		case trace.KindD2H:
			d2h++
		}
	}
	if kern != 1 || h2d != 1 || d2h != 1 {
		t.Fatalf("spans kern=%d h2d=%d d2h=%d, want 1 each", kern, h2d, d2h)
	}
}

// TestResidentFirstLaunchShipsVersionZero: a device that has never seen a
// resident buffer holds no version of it, so the first launch ships Bytes
// even when Version is 0 (n-body numbers its iterations from 0).
func TestResidentFirstLaunchShipsVersionZero(t *testing.T) {
	cl, _ := NewCluster(DefaultConfig(1, "k20"))
	cl.Register(mustKS(t, "scale", scaleKernel))
	const bytes = 4 << 20
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		for i := 0; i < 2; i++ {
			if err := k.NewLaunch(LaunchSpec{
				Params:   map[string]int64{"n": 1 << 10},
				Resident: &Resident{Tag: "pos", Bytes: bytes, Version: 0},
			}).Run(ctx); err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	if got := cl.NodeState(0).Devices[0].BytesMoved(); got != bytes {
		t.Fatalf("two version-0 launches moved %d bytes, want %d (shipped once)", got, int64(bytes))
	}
}

func TestResidentDataTransfersOncePerVersion(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		dev := cl.NodeState(0).Devices[0]
		run := func(version int) {
			err := k.NewLaunch(LaunchSpec{
				Params:   map[string]int64{"n": 1 << 18},
				Resident: &Resident{Tag: "pts", Bytes: 64 << 20, Version: version},
			}).Run(ctx)
			if err != nil {
				t.Error(err)
			}
		}
		run(1)
		after1 := dev.BytesMoved()
		run(1) // same version: no re-transfer
		if dev.BytesMoved() != after1 {
			t.Errorf("same-version launch re-transferred resident data")
		}
		run(2) // new version: one more 64 MB transfer
		if got := dev.BytesMoved() - after1; got != 64<<20 {
			t.Errorf("version bump moved %d bytes, want 64MiB", got)
		}
		return nil
	})
}
