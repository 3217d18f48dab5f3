package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
	"cashmere/internal/mcl/interp"
	"cashmere/internal/satin"
	"cashmere/internal/simnet"
)

const scaleKernel = `
perfect void scale(int n, float[n] a) {
  foreach (int i in n threads) {
    a[i] = a[i] * 2.0 + 1.0;
  }
}
`

func mustKS(t testing.TB, name string, sources ...string) *codegen.KernelSet {
	t.Helper()
	ks, err := codegen.NewKernelSet(name, sources...)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func TestClusterInitializeCompilesPerDevice(t *testing.T) {
	cfg := DefaultConfig(2, "gtx480")
	cfg.Nodes[1] = NodeSpec{Devices: []string{"k20", "xeon_phi"}}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(mustKS(t, "scale", scaleKernel)); err != nil {
		t.Fatal(err)
	}
	_, _, err = cl.Run(func(ctx *satin.Context) any { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cl.NodeState(1).kernels["scale"].compiled); got != 2 {
		t.Fatalf("node 1 compiled %d kernel forms, want 2", got)
	}
}

// TestClusterSharesCompiledKernels: a 16-node cluster compiles each
// (kernel, device type) once, in the kernel set's cache. Every node's
// devices of one type, both k20s of a node included, and a second cluster
// on the same set point at that one Compiled, while the cost cache still
// counts per device.
func TestClusterSharesCompiledKernels(t *testing.T) {
	ks := mustKS(t, "scale", scaleKernel)
	h := hdl.Library()
	shared := map[string]*codegen.Compiled{}
	for _, leaf := range []string{"gtx480", "k20", "xeon_phi"} {
		c, err := ks.Compile(leaf, h)
		if err != nil {
			t.Fatal(err)
		}
		shared[leaf] = c
	}
	run := func(nodes int) *Cluster {
		cfg := DefaultConfig(nodes, "gtx480")
		for i := 1; i < nodes; i += 2 {
			cfg.Nodes[i] = NodeSpec{Devices: []string{"k20", "xeon_phi", "k20"}}
		}
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Register(ks); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Run(func(ctx *satin.Context) any { return nil }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			ns := cl.NodeState(i)
			for d, dev := range ns.Devices {
				if c := ns.kernels["scale"].compiled[d]; c != shared[dev.Spec().Leaf] {
					t.Fatalf("%d nodes: node %d device %d (%s) has its own compile", nodes, i, d, dev.Name())
				}
			}
		}
		return cl
	}
	run(16)
	ns := run(2).NodeState(1)
	params := map[string]int64{"n": 1 << 20}
	for _, dev := range []int{0, 2, 0} {
		if _, err := ns.kernelCost(dev, shared["k20"], params); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := ns.costHits, ns.costMisses; hits != 1 || misses != 2 {
		t.Fatalf("two k20s sharing a compile: %d hits and %d misses, want 1 and 2 (one miss per device)", hits, misses)
	}
}

func TestRegisterErrors(t *testing.T) {
	cl, _ := NewCluster(DefaultConfig(1, "k20"))
	ks := mustKS(t, "scale", scaleKernel)
	if err := cl.Register(ks); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(ks); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := NewCluster(Config{}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewCluster(DefaultConfig(1, "bogus")); err == nil {
		t.Fatal("unknown device accepted")
	}
}

// TestDefaultConfigRejectsNegativeNodes: a negative node count (as from
// `cashmere-run -nodes -3`) fails in NewCluster like zero nodes do, instead
// of panicking while DefaultConfig sizes the node list.
func TestDefaultConfigRejectsNegativeNodes(t *testing.T) {
	for _, n := range []int{0, -3} {
		_, err := NewCluster(DefaultConfig(n, "k20"))
		if err == nil || !strings.Contains(err.Error(), "at least one node") {
			t.Fatalf("%d nodes: err = %v, want the at-least-one-node error", n, err)
		}
	}
}

// TestNewClusterRejectsTooManyNodes: a node count above MaxNodes (as from
// `cashmere-run -nodes 99999999999`) fails in NewCluster, and DefaultConfig
// allocates no more than one spec past the bound on the way there.
func TestNewClusterRejectsTooManyNodes(t *testing.T) {
	for _, n := range []int{MaxNodes + 1, math.MaxInt} {
		cfg := DefaultConfig(n, "k20")
		if len(cfg.Nodes) > MaxNodes+1 {
			t.Fatalf("DefaultConfig(%d) allocated %d node specs", n, len(cfg.Nodes))
		}
		if _, err := NewCluster(cfg); !errors.Is(err, ErrTooManyNodes) {
			t.Fatalf("%d nodes: err = %v, want ErrTooManyNodes", n, err)
		}
	}
}

// TestNewClusterRejectsNegativePartitions: a negative partition count (as
// from `cashmere-run -partitions -2`) is an error naming the value, while 0
// and 1 both build one sequential kernel.
func TestNewClusterRejectsNegativePartitions(t *testing.T) {
	cfg := DefaultConfig(2, "k20")
	cfg.Partitions = -2
	if _, err := NewCluster(cfg); err == nil || !strings.Contains(err.Error(), "-2") {
		t.Fatalf("Partitions -2: err = %v, want an error naming -2", err)
	}
	for _, parts := range []int{0, 1} {
		cfg.Partitions = parts
		cl, err := NewCluster(cfg)
		if err != nil {
			t.Fatalf("Partitions %d: %v", parts, err)
		}
		if n := cl.ps.Parts(); n != 1 {
			t.Fatalf("Partitions %d: %d kernels, want 1", parts, n)
		}
	}
}

func TestLaunchChargesTimeAndFlops(t *testing.T) {
	cfg := DefaultConfig(1, "gtx480")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	const n = 1 << 20
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		k, err := GetKernel(ctx, "scale")
		if err != nil {
			t.Error(err)
			return nil
		}
		l := k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": n},
			InBytes: 4 * n, OutBytes: 4 * n,
		})
		if err := l.Run(ctx); err != nil {
			t.Error(err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.FlopsCharged() < n || cl.FlopsCharged() > 3*n {
		t.Fatalf("FlopsCharged = %g, want ~2n", cl.FlopsCharged())
	}
	// Two 4 MiB transfers at 5.5 GB/s are ~1.5ms; the run must cost at
	// least that plus kernel time.
	if end < simnet.Time(1*time.Millisecond) {
		t.Fatalf("launch cost only %v", end)
	}
}

func TestGetKernelErrors(t *testing.T) {
	cfg := DefaultConfig(1, "gtx480")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		if _, err := GetKernel(ctx, "missing"); err == nil {
			t.Error("GetKernel(missing) succeeded")
		}
		return nil
	})
}

func TestOOMFallsBackToCPUPath(t *testing.T) {
	// gtx480 has 1.5 GB; a 4 GB launch must fail with the error the app's
	// catch branch turns into a CPU leaf (Fig. 4), without touching the
	// device. A single launch never streams: out-of-core execution is a
	// graph-planner feature (TestGraphStreamsOversizedStage).
	cfg := DefaultConfig(1, "gtx480")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		err := k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 1 << 30},
			InBytes: 4 << 30,
		}).Run(ctx)
		if err == nil {
			t.Error("4 GB launch on a 1.5 GB device succeeded")
		}
		return nil
	})
	if cl.CPUFallbacks() != 1 {
		t.Fatalf("CPUFallbacks = %d", cl.CPUFallbacks())
	}
	if dev := cl.NodeState(0).Devices[0]; dev.Launches() != 0 || dev.BytesMoved() != 0 || dev.MemUsed() != 0 {
		t.Fatalf("fallen-back launch used the device: %d launches, %d bytes moved, %d bytes held",
			dev.Launches(), dev.BytesMoved(), dev.MemUsed())
	}
}

// TestOversizedLaunchWithoutOutOfCoreFails checks that a single launch whose
// in+out bytes exceed device memory fails into the CPU fallback rather than
// running out of core (an oversized graph stage fails the same way, see
// TestGraphRejectsOversizedStage). The second case fits each direction alone
// but not their sum.
func TestOversizedLaunchWithoutOutOfCoreFails(t *testing.T) {
	for _, spec := range []LaunchSpec{
		{Params: map[string]int64{"n": 3 << 28}, InBytes: 12 << 28},
		{Params: map[string]int64{"n": 1 << 28}, InBytes: 1 << 30, OutBytes: 1 << 30},
	} {
		cfg := DefaultConfig(1, "gtx480")
		cl, _ := NewCluster(cfg)
		cl.Register(mustKS(t, "scale", scaleKernel))
		cl.Run(func(ctx *satin.Context) any {
			k, _ := GetKernel(ctx, "scale")
			if err := k.NewLaunch(spec).Run(ctx); err == nil {
				t.Errorf("oversized launch (in %d, out %d) succeeded", spec.InBytes, spec.OutBytes)
			}
			return nil
		})
		if cl.CPUFallbacks() != 1 {
			t.Fatalf("CPUFallbacks = %d", cl.CPUFallbacks())
		}
		if dev := cl.NodeState(0).Devices[0]; dev.BytesMoved() != 0 || dev.MemUsed() != 0 {
			t.Fatalf("fallen-back launch used the device: %d bytes moved, %d bytes held",
				dev.BytesMoved(), dev.MemUsed())
		}
	}
}

func TestVerifyModeExecutesKernel(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Verify = true
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	a := interp.NewFloatArray(8)
	for i := range a.F {
		a.F[i] = float64(i)
	}
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		err := k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": 8},
			InBytes: 32, OutBytes: 32,
			Args: []any{int64(8), a},
		}).Run(ctx)
		if err != nil {
			t.Error(err)
		}
		return nil
	})
	for i := range a.F {
		want := float64(i)*2 + 1
		if math.Abs(a.F[i]-want) > 1e-12 {
			t.Fatalf("verify mode did not execute: a[%d] = %v, want %v", i, a.F[i], want)
		}
	}
}

// TestSchedulerFig16Split reproduces the paper's load-balancing example:
// a node with a Xeon Phi and a K20 receives sets of 8 equal k-means jobs;
// with the Phi about 4x slower, the best schedule puts 1 job on the Phi and
// 7 on the K20 (Sec. V-C, Fig. 16).
func TestSchedulerFig16Split(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Nodes[0] = NodeSpec{Devices: []string{"xeon_phi", "k20"}}
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	perDevice := make([]int, 2)
	cl.Run(func(ctx *satin.Context) any {
		ctx.EnableManyCore()
		ns := cl.NodeState(0)
		// Submit the whole set of 8 jobs before any completes, as the
		// many-core threads do between syncs in Fig. 16.
		type picked struct {
			dev int
			est time.Duration
		}
		var ps []picked
		for i := 0; i < 8; i++ {
			dev, est := ns.Sched.Pick("scale")
			perDevice[dev]++
			ps = append(ps, picked{dev, est})
		}
		for _, pk := range ps {
			m := 100 * time.Millisecond
			if ns.Devices[pk.dev].Spec().Name == "xeon_phi" {
				m = 400 * time.Millisecond
			}
			ns.Sched.Done("scale", pk.dev, pk.est, m)
		}
		return nil
	})
	if perDevice[0] != 1 || perDevice[1] != 7 {
		t.Fatalf("schedule = %d on phi, %d on k20; want 1/7", perDevice[0], perDevice[1])
	}
}

func TestSchedulerPrefersMeasuredTimes(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Nodes[0] = NodeSpec{Devices: []string{"gtx480", "k20"}}
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	cl.Run(func(ctx *satin.Context) any {
		ns := cl.NodeState(0)
		s := ns.Sched
		// Record measurements contradicting the static table: gtx480
		// (speed 20) measures FASTER than k20 (speed 40) for this kernel.
		s.Done("scale", 0, 0, 10*time.Millisecond)
		s.Done("scale", 1, 0, 50*time.Millisecond)
		counts := make([]int, 2)
		for i := 0; i < 6; i++ {
			d, est := s.Pick("scale")
			counts[d]++
			s.Done("scale", d, est, est) // est is d's measured time
		}
		// With 10ms vs 50ms, 5 of 6 jobs go to the gtx480.
		if counts[0] < 4 {
			t.Errorf("measured times ignored: %v", counts)
		}
		return nil
	})
}

func TestSchedulerEstimateScalesAcrossDevices(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cfg.Nodes[0] = NodeSpec{Devices: []string{"xeon_phi", "k20"}}
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	ns := cl.NodeState(0)
	// Only the k20 (speed 40) has been measured: 100ms. The phi (speed 10)
	// estimate should scale to ~400ms.
	ns.Sched.Done("scale", 1, 0, 100*time.Millisecond)
	est := ns.Sched.Estimate("scale", 0)
	if est != 400*time.Millisecond {
		t.Fatalf("phi estimate = %v, want 400ms", est)
	}
}

// TestDeviceCopyResidentData pins the paper's "device copies" optimization
// (Sec. II-C.1) as LaunchSpec.Resident provides it: the bulk data crosses
// PCIe once, and iterative launches against it move only their small deltas.
func TestDeviceCopyResidentData(t *testing.T) {
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	const bulk, delta = 1 << 20, 1024
	cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		for i := 0; i < 3; i++ {
			if err := k.NewLaunch(LaunchSpec{
				Params:   map[string]int64{"n": 1 << 18},
				InBytes:  delta,
				OutBytes: delta,
				Resident: &Resident{Tag: "points", Bytes: bulk, Version: 1},
			}).Run(ctx); err != nil {
				t.Error(err)
			}
		}
		return nil
	})
	dev := cl.NodeState(0).Devices[0]
	if want := int64(bulk + 3*2*delta); dev.BytesMoved() != want {
		t.Fatalf("moved %d bytes, want %d (bulk once, deltas per launch)", dev.BytesMoved(), want)
	}
	if dev.MemUsed() != 0 {
		t.Fatalf("leaked %d bytes of device memory", dev.MemUsed())
	}
}

func TestManyCoreLaunchesOverlapAcrossDevices(t *testing.T) {
	// Two devices, two concurrent many-core jobs: the makespan must be
	// roughly one kernel time, not two.
	cfg := DefaultConfig(1, "k20")
	cfg.Nodes[0] = NodeSpec{Devices: []string{"k20", "k20"}}
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	const n = 64 << 20 // 256 MB array: ~big kernel
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		ctx.EnableManyCore()
		for i := 0; i < 2; i++ {
			ctx.Spawn(satin.JobDesc{Name: "leaf"}, func(c *satin.Context) any {
				k, _ := GetKernel(c, "scale")
				if err := k.NewLaunch(LaunchSpec{
					Params:  map[string]int64{"n": n},
					InBytes: 4 * n, OutBytes: 4 * n,
				}).Run(c); err != nil {
					t.Error(err)
				}
				return nil
			})
		}
		ctx.Sync()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One launch alone: ~2x 44ms transfers + kernel. If the two jobs
	// serialized on one device the end time would double.
	single := clRunSingle(t, n)
	if float64(end) > 1.3*float64(single) {
		t.Fatalf("two devices did not overlap: 2-job makespan %v vs single %v", end, single)
	}
}

func clRunSingle(t *testing.T, n int64) simnet.Time {
	t.Helper()
	cfg := DefaultConfig(1, "k20")
	cl, _ := NewCluster(cfg)
	cl.Register(mustKS(t, "scale", scaleKernel))
	_, end, err := cl.Run(func(ctx *satin.Context) any {
		k, _ := GetKernel(ctx, "scale")
		if err := k.NewLaunch(LaunchSpec{
			Params:  map[string]int64{"n": n},
			InBytes: 4 * n, OutBytes: 4 * n,
		}).Run(ctx); err != nil {
			t.Error(err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return end
}
