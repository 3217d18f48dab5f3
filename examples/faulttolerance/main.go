// Fault tolerance: Satin's crash recovery inside Cashmere.
//
// A six-node cluster renders a workload; 50 ms into the run, two
// nodes crash. Jobs they had stolen are re-executed by their owners
// (Satin's re-execution mechanism, Sec. II-A "fault tolerance"), and the
// computation completes with the correct result on the survivors.
//
// Run with: go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"
	"time"

	"cashmere"
)

const kernelSrc = `
perfect void work(int n, float[n] a) {
  foreach (int i in n threads) {
    float x = a[i];
    @expect(256) for (int k = 0; k < 256; k++) {
      x = x * 0.999 + 0.001;
    }
    a[i] = x;
  }
}
`

func main() {
	ks, err := cashmere.NewKernelSet("work", kernelSrc)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := cashmere.NewCluster(cashmere.DefaultConfig(6, "gtx480"))
	if err != nil {
		log.Fatal(err)
	}
	if err := cl.Register(ks); err != nil {
		log.Fatal(err)
	}

	// Crash nodes 4 and 5 at t = 50ms (virtual), mid-computation.
	rt := cl.Runtime()
	cl.Kernel().SpawnAt(cashmere.Time(50*time.Millisecond), "chaos", func(p *cashmere.Proc) {
		fmt.Printf("t=%v: killing nodes 4 and 5\n", p.Now())
		rt.CrashAsync(p, 4)
		rt.CrashAsync(p, 5)
	})

	const leaves = 64
	var done int
	var run func(ctx *cashmere.Context, lo, hi int)
	run = func(ctx *cashmere.Context, lo, hi int) {
		if hi-lo == 1 {
			k, err := cashmere.GetKernel(ctx, "work")
			if err != nil {
				return
			}
			if err := k.NewLaunch(cashmere.LaunchSpec{
				Params:  map[string]int64{"n": 1 << 24},
				InBytes: 4 << 24, OutBytes: 4 << 24,
			}).Run(ctx); err == nil {
				done++
			}
			return
		}
		if hi-lo <= 2 && !ctx.ManyCore() {
			ctx.EnableManyCore()
		}
		mid := (lo + hi) / 2
		desc := cashmere.JobDesc{Name: "work", InputBytes: 4 << 24, ResultBytes: 4 << 24}
		ctx.Spawn(desc, func(c *cashmere.Context) any { run(c, lo, mid); return nil })
		ctx.Spawn(desc, func(c *cashmere.Context) any { run(c, mid, hi); return nil })
		ctx.Sync()
	}

	_, elapsed, err := cl.Run(func(ctx *cashmere.Context) any {
		run(ctx, 0, leaves)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed %d/%d leaves in %v despite two crashed nodes\n", done, leaves, elapsed)
	fmt.Printf("jobs re-executed after the crash: %d\n", rt.JobsReExecuted())
	if rt.JobsReExecuted() == 0 {
		fmt.Println("(crash happened after the victims had finished their stolen work)")
	}
}
