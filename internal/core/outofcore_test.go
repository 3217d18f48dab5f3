package core

import (
	"testing"

	"cashmere/internal/satin"
	"cashmere/internal/simnet"
	"cashmere/internal/svm"
)

func TestOutOfCoreLaunchStreamsOversizedData(t *testing.T) {
	// gtx480 has 1.5 GB of device memory; a 6 GB launch fails normally but
	// streams in passes with OutOfCore (the paper's future-work extension).
	cfg := DefaultConfig(1, "gtx480")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	const n = 3 << 28 // 805M floats in, same out: ~6.4 GB total
	var end simnet.Time
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		err := k.NewLaunch(LaunchSpec{
			Params:    map[string]int64{"n": n},
			InBytes:   4 * n,
			OutBytes:  4 * n,
			OutOfCore: true,
		}).Run(ctx)
		if err != nil {
			t.Errorf("out-of-core launch failed: %v", err)
		}
		end = ctx.Proc().Now()
		return nil
	})
	if end == 0 {
		t.Fatal("launch did not run")
	}
	dev := cl.NodeState(0).Devices[0]
	if dev.Launches() < 2 {
		t.Fatalf("out-of-core ran %d passes, want several", dev.Launches())
	}
	if dev.BytesMoved() != 8*n {
		t.Fatalf("moved %d bytes, want %d", dev.BytesMoved(), int64(8*n))
	}
	if dev.MemUsed() != 0 {
		t.Fatalf("leaked %d bytes of device memory", dev.MemUsed())
	}
	if cl.CPUFallbacks() != 0 {
		t.Fatal("out-of-core launch fell back to CPU")
	}
	if cl.FlopsCharged() <= 0 {
		t.Fatal("no flops charged")
	}
}

func TestOversizedLaunchWithoutOutOfCoreFails(t *testing.T) {
	cfg := DefaultConfig(1, "gtx480")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		err := k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 3 << 28},
			InBytes: 12 << 28,
		}).Run(ctx)
		if err == nil {
			t.Error("oversized launch without OutOfCore succeeded")
		}
		return nil
	})
	if cl.CPUFallbacks() != 1 {
		t.Fatalf("CPUFallbacks = %d", cl.CPUFallbacks())
	}
}

func TestOutOfCoreExactBytesWithRemainder(t *testing.T) {
	// Sizes deliberately not divisible by the pass count: the integer split
	// must fold the remainder into the last pass so modeled PCIe traffic is
	// byte-exact, not short by up to passes-1 bytes per direction.
	cfg := DefaultConfig(1, "gtx480")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	const in = int64(6<<30) + 7919 // prime tail
	const out = int64(1<<30) + 104729
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		if err := k.NewLaunch(LaunchSpec{
			Params:    map[string]int64{"n": 1 << 28},
			InBytes:   in,
			OutBytes:  out,
			OutOfCore: true,
		}).Run(ctx); err != nil {
			t.Error(err)
		}
		return nil
	})
	dev := cl.NodeState(0).Devices[0]
	if dev.BytesMoved() != in+out {
		t.Fatalf("moved %d bytes, want exactly %d (short by %d)",
			dev.BytesMoved(), in+out, in+out-dev.BytesMoved())
	}
	if dev.Launches() < 2 {
		t.Fatalf("ran %d passes, want several", dev.Launches())
	}
	if dev.MemUsed() != 0 {
		t.Fatalf("leaked %d bytes of device memory", dev.MemUsed())
	}
}

func TestOutOfCorePassesOverlapTransfersWithKernels(t *testing.T) {
	// With dual DMA engines the passes pipeline: total time must be well
	// under the fully serialized sum of transfers plus kernels.
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	const n = 2 << 30 // 8 GB in + 8 GB out on a 5 GB device
	var end simnet.Time
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		if err := k.NewLaunch(LaunchSpec{
			Params:    map[string]int64{"n": n},
			InBytes:   4 * n,
			OutBytes:  4 * n,
			OutOfCore: true,
		}).Run(ctx); err != nil {
			t.Error(err)
		}
		end = ctx.Proc().Now()
		return nil
	})
	dev := cl.NodeState(0).Devices[0]
	// Serialized floor: each byte crosses PCIe once in each direction.
	wire := dev.Spec().TransferTime(4 * n)
	serialized := 2 * wire
	if simnet.Duration(end) > serialized+serialized/2 {
		t.Fatalf("out-of-core made no use of overlap: end=%v vs serialized=%v", end, serialized)
	}
}

func TestOutOfCoreBillsDeclaredBuffers(t *testing.T) {
	// Under the explicit transport a declared buffer read rides the input
	// transfer. The fits check counts it, so the out-of-core passes must
	// move it too: 1 GiB of plain input plus a 1 GiB buffer overflows the
	// gtx480's 1.5 GB and streams every byte of both.
	cl, _ := NewCluster(DefaultConfig(1, "gtx480"))
	cl.Register(mustKS(t, "scale", scaleKernel))
	const in, buf = int64(1 << 30), int64(1 << 30)
	_, _, err := cl.Run(func(ctx *satin.Context) any {
		b, err := NewSVMBuffer(ctx, "a", buf)
		if err != nil {
			return err
		}
		k, err := GetKernel(ctx, "scale")
		if err != nil {
			return err
		}
		return k.NewLaunch(LaunchSpec{
			Params:    map[string]int64{"n": 1 << 28},
			InBytes:   in,
			Buffers:   []BufferAccess{{Buf: b, Mode: svm.Read}},
			OutOfCore: true,
		}).Run(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.CollectMetrics().Int("mcl.bytes_moved"); got != in+buf {
		t.Fatalf("mcl.bytes_moved = %d, want %d (short by %d)", got, in+buf, in+buf-got)
	}
	if dev := cl.NodeState(0).Devices[0]; dev.Launches() < 2 {
		t.Fatalf("ran %d passes, want several", dev.Launches())
	}
}
