package main

import "time"

// probeRefSeconds is the probe's typical time on the recording host (Intel
// Xeon, 2 CPUs, go1.24): the median, over 125 runs of the benchmark, of
// each run's median probe time (0.0299 s). Host times are reported at that
// speed.
const probeRefSeconds = 0.030

// probe times a fixed piece of work shaped like the simulator's own: an
// allocation-free binary-heap event loop with a scattered counter table.
// The benchmark runs it just before every timed call and every set-up, and
// scales their time by probeRefSeconds over the probe's time, so a host
// that runs everything slower for a while (other tenants, frequency
// changes) moves neither. It is the benchmark's own code, so no change to the simulator
// moves it either.
func probe() float64 {
	const size = 4096
	var h [size]struct{ t, seq uint64 }
	var counts [size]uint32
	less := func(i, j int) bool { return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].seq < h[j].seq) }
	down := func(i int) {
		for {
			m, l, r := i, 2*i+1, 2*i+2
			if l < size && less(l, m) {
				m = l
			}
			if r < size && less(r, m) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	start := time.Now()
	for i := range h {
		h[i].t, h[i].seq = uint64(i*7919%10007), uint64(i)
	}
	for i := size/2 - 1; i >= 0; i-- {
		down(i)
	}
	seq := uint64(size)
	for n := 0; n < 200_000; n++ {
		// Replace the earliest event by one a pseudo-random delay later.
		seq++
		counts[h[0].t%size]++
		h[0].t += seq * 2654435761 % 1000
		h[0].seq = seq
		down(0)
	}
	elapsed := time.Since(start).Seconds()
	if counts[0] == 1<<31 { // keeps the work observable to the compiler
		elapsed++
	}
	return elapsed
}
