package core

import (
	"time"

	"cashmere/internal/simnet"
)

// Scheduler is Cashmere's intra-node multi-device load balancer
// (Sec. III-B). Leaf jobs in a divide-and-conquer application typically have
// the same size, so the scheduler:
//
//  1. bootstraps from the static relative-speed table (K20 = 40,
//     GTX480 = 20, ...) while no kernel time has been measured;
//  2. once jobs complete, uses the measured execution time per (kernel,
//     device) pair;
//  3. submits each job to the device queue that minimizes the overall
//     completion time of all queued jobs — the min(scenario1, scenario2)
//     rule from the paper, which for a single new job is the queue with the
//     least (pending backlog + estimated job time).
type Scheduler struct {
	ns      *NodeState
	pending []simnet.Duration            // estimated backlog per device
	history map[string][]simnet.Duration // kernel -> per-device measured time (0 = none)
}

// nominalJob is the assumed duration of a kernel job on a speed-20 device
// (GTX480) before any measurement exists. Only ratios matter for queue
// choice; the absolute value just seeds the backlog accounting.
const nominalJob = 20 * time.Millisecond

func newScheduler(ns *NodeState) *Scheduler {
	return &Scheduler{
		ns:      ns,
		pending: make([]simnet.Duration, len(ns.Devices)),
		history: map[string][]simnet.Duration{},
	}
}

// Estimate returns the expected execution time of the kernel on device d:
// the measured time if available, a measurement on another device scaled by
// the static speed table otherwise, or the table alone as a last resort.
func (s *Scheduler) Estimate(kernel string, d int) simnet.Duration {
	hist := s.history[kernel]
	if hist != nil && hist[d] > 0 {
		return hist[d]
	}
	speedD := float64(s.ns.Devices[d].Spec().StaticSpeed)
	if hist != nil {
		for o, t := range hist {
			if t > 0 {
				speedO := float64(s.ns.Devices[o].Spec().StaticSpeed)
				return simnet.Duration(float64(t) * speedO / speedD)
			}
		}
	}
	return simnet.Duration(float64(nominalJob) * 20 / speedD)
}

// Pick selects the device for the next job of the given kernel and books
// its estimated time into the queue backlog. Call Done when the job
// finishes.
func (s *Scheduler) Pick(kernel string) (dev int, est simnet.Duration) {
	best := -1
	var bestFinish simnet.Duration
	var bestEst simnet.Duration
	for d := range s.ns.Devices {
		e := s.Estimate(kernel, d)
		finish := s.pending[d] + e
		if best == -1 || finish < bestFinish {
			best, bestFinish, bestEst = d, finish, e
		}
	}
	s.pending[best] += bestEst
	return best, bestEst
}

// Done releases the booked estimate and records the measured kernel time
// for future scheduling decisions.
func (s *Scheduler) Done(kernel string, dev int, est, measured simnet.Duration) {
	s.pending[dev] -= est
	if s.pending[dev] < 0 {
		s.pending[dev] = 0
	}
	hist := s.history[kernel]
	if hist == nil {
		hist = make([]simnet.Duration, len(s.ns.Devices))
		s.history[kernel] = hist
	}
	hist[dev] = measured
}

// Book adds t of estimated work to device d's queue backlog without tying it
// to a kernel: graph runs book their per-device planned compute so plain
// launches scheduled concurrently see the load. Pair with Release.
func (s *Scheduler) Book(d int, t simnet.Duration) {
	s.pending[d] += t
}

// Release removes a Book-ed estimate from device d's backlog.
func (s *Scheduler) Release(d int, t simnet.Duration) {
	s.pending[d] -= t
	if s.pending[d] < 0 {
		s.pending[d] = 0
	}
}

// Record stores a measured (or modeled) kernel time for future Estimate
// calls without touching the backlog. Unlike Done with measured == 0, it
// never erases history.
func (s *Scheduler) Record(kernel string, dev int, measured simnet.Duration) {
	if measured <= 0 {
		return
	}
	hist := s.history[kernel]
	if hist == nil {
		hist = make([]simnet.Duration, len(s.ns.Devices))
		s.history[kernel] = hist
	}
	hist[dev] = measured
}

// Backlog returns the current estimated backlog of device d's queue.
func (s *Scheduler) Backlog(d int) simnet.Duration { return s.pending[d] }
