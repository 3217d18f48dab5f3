package core

import (
	"testing"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// TestLargeInCoreLaunchStreams: a single launch big enough for the pipeline
// threshold runs as several passes whose transfers overlap compute — the
// device reports intra-launch overlap that the old single-triple path could
// never produce, and byte accounting stays exact. The second case's byte
// counts are not multiples of the pass count: the remainder folds into the
// last pass, so no byte goes unbilled.
func TestLargeInCoreLaunchStreams(t *testing.T) {
	const n = 32 << 20 // 128 MB in + 128 MB out: over the 128 MiB threshold
	for _, tc := range []struct{ in, out int64 }{
		{4 * n, 4 * n},
		{4*n + 7919, 4*n + 104729},
	} {
		cfg := DefaultConfig(1, "k20")
		cl, _ := NewCluster(cfg)
		cl.Register(mustKS(t, "scale", scaleKernel))
		cl.Run(func(ctx *satin.Context) any {
			k, _ := GetKernel(ctx, "scale")
			if err := k.NewLaunch(LaunchSpec{
				Params:  map[string]int64{"n": n},
				InBytes: tc.in, OutBytes: tc.out,
			}).Run(ctx); err != nil {
				t.Error(err)
			}
			return nil
		})
		dev := cl.NodeState(0).Devices[0]
		passes := inCorePasses(tc.in + tc.out)
		if got := dev.Launches(); got != int64(passes) {
			t.Fatalf("in %d, out %d: launch ran as %d passes, want %d", tc.in, tc.out, got, passes)
		}
		if dev.BytesMoved() != tc.in+tc.out {
			t.Fatalf("in %d, out %d: BytesMoved = %d, want %d", tc.in, tc.out, dev.BytesMoved(), tc.in+tc.out)
		}
		if dev.OverlapLowerBound() <= 0 {
			t.Fatal("streamed launch reports no transfer/compute overlap")
		}
		if dev.MemUsed() != 0 {
			t.Fatalf("leaked %d bytes", dev.MemUsed())
		}
	}
}

// TestSmallLaunchDoesNotStream: below the threshold the launch stays one
// write/launch/read triple.
func TestSmallLaunchDoesNotStream(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		if err := k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 1 << 16},
			InBytes: 4 << 16, OutBytes: 4 << 16,
		}).Run(ctx); err != nil {
			t.Error(err)
		}
		return nil
	})
	if got := cl.NodeState(0).Devices[0].Launches(); got != 1 {
		t.Fatalf("small launch split into %d passes", got)
	}
}

// TestResidentLargeInputNotCoalesced: a due resident transfer and the
// launch's own input ship as two transfers, one H2D span each.
func TestResidentLargeInputNotCoalesced(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Record = true
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		if err := k.NewLaunch(LaunchSpec{
			Params:   map[string]int64{"n": 1 << 16},
			InBytes:  1 << 20,
			Resident: &Resident{Tag: "points", Bytes: 1 << 20, Version: 1},
		}).Run(ctx); err != nil {
			t.Error(err)
		}
		return nil
	})
	h2d := cl.Recorder().Filter(func(s trace.Span) bool { return s.Kind == trace.KindH2D })
	if len(h2d) != 2 {
		t.Fatalf("expected resident + input transfers, got %d: %v", len(h2d), h2d)
	}
}

// TestConcurrentLaunchOrdersBehindInFlightResident: a second launch that
// finds the resident version current must still order its kernel behind the
// first launch's resident transfer while it is on the wire.
func TestConcurrentLaunchOrdersBehindInFlightResident(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	const resident = 600 << 20 // ~100ms on the wire
	var ends [2]simnet.Time
	cl.Run(func(ctx *satin.Context) any {
		ctx.EnableManyCore()
		for i := 0; i < 2; i++ {
			i := i
			ctx.Spawn(satin.JobDesc{Name: "leaf"}, func(c *satin.Context) any {
				k, _ := GetKernel(c, "scale")
				if err := k.NewLaunch(LaunchSpec{
					Params:   map[string]int64{"n": 1 << 10},
					Resident: &Resident{Tag: "pts", Bytes: resident, Version: 1},
				}).Run(c); err != nil {
					t.Error(err)
				}
				ends[i] = c.Proc().Now()
				return nil
			})
		}
		ctx.Sync()
		return nil
	})
	dev := cl.NodeState(0).Devices[0]
	wire := simnet.Time(dev.Spec().TransferTime(resident))
	for i, e := range ends {
		if e < wire {
			t.Fatalf("launch %d finished at %v, before the resident transfer (%v) landed", i, e, wire)
		}
	}
	if dev.BytesMoved() != resident {
		t.Fatalf("resident data shipped %d bytes, want exactly once (%d)", dev.BytesMoved(), int64(resident))
	}
}
