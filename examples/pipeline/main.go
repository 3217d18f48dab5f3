// Pipeline: the asynchronous command-queue device runtime, used directly.
//
// Cashmere's launch path (internal/core) drives devices through in-order
// command queues: EnqueueWrite / EnqueueLaunch / EnqueueRead append an
// operation to the engine's queue and return an Event that completes in
// virtual time — no process is parked per operation, and events express
// cross-queue dependencies. This example uses that API directly to show the
// Sec. III-B overlap claim ("the data transfers can be completely overlapped
// with kernel executions except for the first and last"): the same chunked
// workload runs once serially (blocking wrappers) and once as a
// double-buffered pipeline (two staging chunks, write[i] depending on
// read[i-2]), on a K20 with dual DMA engines.
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"cashmere/internal/device"
	"cashmere/internal/ocl"
	"cashmere/internal/simnet"
)

const (
	passes = 8
	chunk  = int64(64 << 20) // 64 MiB in and out per pass
)

// passCost is the roofline descriptor for one pass's kernel: enough flops
// that compute time is comparable to the PCIe time, so overlap matters.
var passCost = device.KernelCost{
	Flops:        8e9,
	MemBytes:     float64(2 * chunk),
	ComputeEff:   0.5,
	BandwidthEff: 0.5,
}

// run executes the chunked workload on a fresh device and returns the
// virtual makespan plus the device's measured transfer/compute overlap.
func run(pipelined bool) (makespan simnet.Duration, overlap simnet.Duration) {
	k := simnet.NewKernel(1)
	spec, err := device.Lookup("k20")
	if err != nil {
		log.Fatal(err)
	}
	dev := ocl.NewDevice(k, spec, 0, 0, nil)

	k.Spawn("host", func(p *simnet.Proc) {
		if !pipelined {
			// Serial: each pass blocks on write, then launch, then read.
			// The engines never run concurrently.
			for i := 0; i < passes; i++ {
				dev.EnqueueWrite(chunk, "").Wait(p)
				dev.EnqueueLaunch(passCost, "").Wait(p)
				dev.EnqueueRead(chunk, "").Wait(p)
			}
			return
		}
		// Pipelined: enqueue every pass up front with event dependencies.
		// Two staging chunks on the host side: pass i may only start its
		// H2D write once pass i-2 has read its result back.
		var last ocl.Event
		var reads [2]ocl.Event
		for i := 0; i < passes; i++ {
			w := dev.EnqueueWrite(chunk, "", reads[i%2])
			l := dev.EnqueueLaunch(passCost, "", w)
			r := dev.EnqueueRead(chunk, "", l)
			reads[i%2] = r
			last = r
		}
		last.Wait(p) // one park for the whole pipeline
	})
	k.Run(0)
	return simnet.Duration(k.Now()), dev.OverlapLowerBound()
}

func main() {
	serial, _ := run(false)
	pipe, overlap := run(true)

	fmt.Printf("%d passes of %d MiB in + %d MiB out on a simulated K20 (dual DMA engines)\n\n",
		passes, chunk>>20, chunk>>20)
	fmt.Printf("serial    (blocking Write/Launch/Read): %12v virtual\n", serial)
	fmt.Printf("pipelined (events, double-buffered):    %12v virtual\n", pipe)
	fmt.Printf("\nspeedup: %.2fx, transfer/compute overlap >= %v\n",
		float64(serial)/float64(pipe), overlap)
	fmt.Println("\nonly the first write and the last read sit outside kernel execution —")
	fmt.Println("exactly the Sec. III-B overlap structure Cashmere relies on.")
}
