package core

import (
	"fmt"

	"cashmere/internal/simnet"
	"cashmere/internal/svm"
	"cashmere/internal/trace"
)

// schedTracer adapts the simnet.Tracer callbacks onto the trace recorder.
// It lives in core (not simnet) because simnet cannot import trace: trace
// depends on simnet.Time. Process run slices become KindSched spans on the
// trace.NodeKernel pseudo-node, one lane per process; event-queue depth
// becomes a gauge.
type schedTracer struct {
	rec *trace.Recorder
}

func (t schedTracer) ProcSlice(name string, id int, start, end simnet.Time) {
	t.rec.Add(trace.Span{
		Node: trace.NodeKernel, Queue: fmt.Sprintf("p%03d", id),
		Kind: trace.KindSched, Label: name, Start: start, End: end,
	})
}

func (t schedTracer) QueueDepth(tm simnet.Time, depth int) {
	t.rec.GaugeSet(trace.NodeKernel, "simnet.queue_depth", tm, int64(depth))
}

// CollectMetrics gathers the cluster-wide metrics of a finished (or paused)
// run: simulation-kernel statistics, Satin runtime statistics, network
// traffic, device utilization, plus — when tracing is on — every counter the
// recorder accumulated, per node and summed.
//
// Every value here is trajectory-determined: for the same program and seed
// the dump is byte-identical across partition counts (the determinism CI
// job diffs exactly this). Quantities that depend on the partition layout
// or the host (coroutine resumes, queue high-water marks, synchronization
// rounds, wall times) live in HostMetrics instead.
func (cl *Cluster) CollectMetrics() *trace.Metrics {
	m := trace.NewMetrics()

	st := cl.ps.AggregateKernelStats()
	m.SetInt("simnet.events", st.Events)
	m.SetInt("simnet.stale_wakes", st.Stale)
	m.SetInt("simnet.callbacks", st.Callbacks)
	m.SetInt("simnet.spawned_procs", st.Spawns)
	m.SetInt("sim.virtual_time_ns", int64(cl.ps.Now()))

	m.SetInt("satin.jobs_spawned", cl.rt.JobsSpawned())
	m.SetInt("satin.jobs_executed", cl.rt.JobsExecuted())
	m.SetInt("satin.jobs_reexecuted", cl.rt.JobsReExecuted())
	m.SetInt("satin.jobs_migrated", cl.rt.JobsMigrated())
	m.SetInt("satin.steals_ok", cl.rt.StealsOK())
	m.SetInt("satin.steals_failed", cl.rt.StealsFailed())

	fab := cl.rt.Fabric()
	m.SetInt("net.bytes_sent", fab.BytesSent())
	m.SetInt("net.messages_sent", fab.MessagesSent())
	m.SetInt("net.messages_dropped", fab.MessagesDropped())

	var launches, bytesMoved int64
	var costHits, costMisses int64
	var graphRuns, graphStages, graphHits, graphSaved int64
	var kernelBusy, xferBusy, overlap simnet.Duration
	for _, ns := range cl.nodes {
		for _, d := range ns.Devices {
			launches += d.Launches()
			bytesMoved += d.BytesMoved()
			kernelBusy += d.KernelBusy()
			xferBusy += d.XferBusy()
			overlap += d.OverlapLowerBound()
		}
		costHits += ns.costHits
		costMisses += ns.costMisses
		graphRuns += ns.graphRuns
		graphStages += ns.graphStages
		graphHits += ns.graphResidentHits
		graphSaved += ns.graphBytesSaved
	}
	m.SetInt("mcl.launches", launches)
	m.SetInt("mcl.bytes_moved", bytesMoved)
	m.SetInt("mcl.kernel_busy_ns", int64(kernelBusy))
	m.SetInt("mcl.xfer_busy_ns", int64(xferBusy))
	m.SetInt("mcl.overlap_lower_bound_ns", int64(overlap))
	m.SetInt("graph.runs", graphRuns)
	m.SetInt("graph.stages", graphStages)
	m.SetInt("graph.resident_hits", graphHits)
	m.SetInt("graph.bytes_moved_saved", graphSaved)
	m.SetInt("core.cpu_fallbacks", cl.CPUFallbacks())
	m.SetInt("core.cost_cache_hits", costHits)
	m.SetInt("core.cost_cache_misses", costMisses)
	m.SetFloat("core.flops_charged", cl.FlopsCharged(), "flop")
	// Auto-tuning cache counters. Tuning happens before the partitioned run
	// (search and initialization lookups are layout-independent), so these
	// are byte-identical at any -partitions count like everything above.
	var tuneHits, tuneMisses, tuneEvals int64
	if cl.cfg.Tuning != nil {
		tuneHits, tuneMisses, tuneEvals = cl.cfg.Tuning.Counters()
	}
	m.SetInt("tune.cache_hits", tuneHits)
	m.SetInt("tune.cache_misses", tuneMisses)
	m.SetInt("tune.evaluations", tuneEvals)

	// Shared-virtual-memory counters, summed over nodes. All zero under the
	// explicit transport with no declared SVM buffers; trajectory-determined
	// like everything else in this dump.
	var sc svm.Counters
	for _, ns := range cl.nodes {
		sc.Add(ns.Space.Counters())
	}
	m.SetInt("svm.faults", sc.Faults)
	m.SetInt("svm.hits", sc.Hits)
	m.SetInt("svm.pages_migrated", sc.PagesMigrated)
	m.SetInt("svm.invalidations", sc.Invalidations)
	m.SetInt("svm.bytes_moved", sc.BytesMoved)

	m.MergeCounters(cl.rec)
	return m
}

// HostMetrics gathers the quantities CollectMetrics deliberately leaves out:
// scheduler internals that vary with the partition layout or say how each
// wake ran (coroutine switches, direct-handoff self-wakes, inline steps of
// step processes, event-queue high-water marks) and the
// partitioned scheduler's synchronization counters and wall-clock times.
// Useful for performance reporting; never byte-compared.
func (cl *Cluster) HostMetrics() *trace.Metrics {
	m := trace.NewMetrics()
	st := cl.ps.AggregateKernelStats()
	m.SetInt("simnet.self_wakes", st.SelfWakes)
	m.SetInt("simnet.switches", st.Switches)
	m.SetInt("simnet.steps", st.Steps)
	m.SetInt("simnet.max_queue", int64(st.MaxQueue))

	ps := cl.ps.Stats()
	m.SetInt("pdes.partitions", int64(ps.Partitions))
	m.SetInt("pdes.lookahead_ns", int64(ps.Lookahead))
	m.SetInt("pdes.rounds", ps.Rounds)
	m.SetInt("pdes.wall_ns", ps.WallNs)
	for i, p := range ps.Parts {
		pfx := fmt.Sprintf("pdes.p%d.", i)
		m.SetInt(pfx+"nodes", int64(p.Nodes))
		m.SetInt(pfx+"windows", p.Windows)
		m.SetInt(pfx+"null_rounds", p.NullRounds)
		m.SetInt(pfx+"cross_sent", p.CrossSent)
		m.SetInt(pfx+"cross_recv", p.CrossRecv)
		m.SetInt(pfx+"run_wall_ns", p.RunWallNs)
		m.SetInt(pfx+"blocked_wall_ns", p.BlockedWallNs)
	}
	return m
}
