// Package satin reimplements the Satin divide-and-conquer runtime that
// Cashmere builds on (van Nieuwpoort et al., TOPLAS 2010): spawnable
// functions, sync, random work-stealing across cluster nodes, latency
// hiding, crash fault tolerance through job re-execution, and replicated
// shared objects.
//
// The runtime executes inside the simnet discrete-event kernel: every worker
// is a simulation process, steal messages travel over the network model, and
// leaf computations charge modeled time — so cluster-scale behaviour
// (speedup curves, communication bottlenecks) is reproduced faithfully while
// the Go closures of the application still execute for real.
//
// Spawn semantics follow Satin's help-first (child-stealing) model: a spawn
// pushes an invocation record on the local deque and the parent continues;
// sync runs or waits for the children, helping with local work and stealing
// while blocked. Local pops take the newest job (depth-first, cache
// friendly); steals take the oldest (largest subtree, minimizing steal
// rate).
package satin

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sort"
	"time"

	"cashmere/internal/network"
	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// Config tunes the runtime.
type Config struct {
	// WorkersPerNode is the number of CPU workers per node in a Run (a
	// RunServices run starts none). Satin runs 8 (one per core of the dual
	// quad-core DAS-4 nodes); Cashmere runs 1 plus device threads, because
	// one leaf already fills a device.
	WorkersPerNode int
	// SpawnOverhead is the CPU cost of creating an invocation record.
	SpawnOverhead simnet.Duration
	// StealBackoff is the first idle wait after a failed steal round. Each
	// further failed round in a row doubles the wait while it is below the
	// cap (see MaxIdleBackoff); running a job starts over at StealBackoff.
	StealBackoff simnet.Duration
	// StealTimeout bounds the wait for a steal reply.
	StealTimeout simnet.Duration
	// StealOldest selects the steal end of the deque: true (Satin's choice)
	// steals the oldest, largest job; false steals the newest. Exposed for
	// the ablation benchmark.
	StealOldest bool
	// StealAttempts is the number of random victims probed per steal round
	// before the thief backs off.
	StealAttempts int
	// MaxIdleBackoff bounds the idle backoff. An idle worker's wait doubles
	// while it is below MaxIdleBackoff, so it settles at the first doubling
	// of StealBackoff that reaches it: 61.44 ms with the defaults (30 µs
	// doubled 11 times), not 50 ms. A frame blocked in Sync doubles while
	// below 8 × MaxIdleBackoff (491.52 ms with the defaults), and also
	// wakes when the child it waits for completes. Pick it well below the
	// leaf duration: Satin's multi-second CPU leaves tolerate tens of
	// milliseconds, Cashmere's fast kernels want ~1ms for quick job
	// discovery after iteration barriers.
	MaxIdleBackoff simnet.Duration
}

// DefaultConfig returns the configuration used by the paper reproduction
// runs.
func DefaultConfig() Config {
	return Config{
		WorkersPerNode: 8,
		SpawnOverhead:  2 * time.Microsecond,
		StealBackoff:   30 * time.Microsecond,
		StealTimeout:   2 * time.Millisecond,
		StealOldest:    true,
		StealAttempts:  4,
		MaxIdleBackoff: 50 * time.Millisecond,
	}
}

// Job is one invocation record.
type Job struct {
	ID     uint64
	Desc   JobDesc
	fn     func(ctx *Context) any
	result simnet.Future[any]
	owner  int // node that spawned the job (where the future lives)

	// The job's promise and, in many-core mode, the frame it runs in live
	// here, so a spawn allocates one value. A stealable job's frame is
	// made per run instead (see runJob): a re-executed job may run while
	// its crashed first run is still parked in its frame.
	promise Promise
	frame   Context
}

// JobDesc declares the modeled data sizes of a job, charged when the job or
// its result crosses the network.
type JobDesc struct {
	Name        string
	InputBytes  int64
	ResultBytes int64
}

// Promise is the handle returned by Spawn; Value is valid after Sync.
type Promise struct {
	job *Job
}

// Value returns the job's result. It panics if called before the owning
// frame's Sync completed, mirroring Satin's rule that spawn results are
// undefined before sync.
func (p *Promise) Value() any {
	v, ok := p.job.result.Peek()
	if !ok {
		panic("satin: Promise.Value before sync (result not available)")
	}
	return v
}

// Runtime is a Satin execution over a set of cluster nodes. All mutable
// runtime state is sharded per node (deques, pools, RNGs, counters), so
// nodes bound to different partitions of a partitioned simulation never
// share memory; cross-node effects travel exclusively over the network
// fabric.
type Runtime struct {
	ps     *simnet.Partitioned
	k      *simnet.Kernel // partition 0's kernel (the master's)
	fabric *network.Fabric
	cfg    Config
	nodes  []*Node
	rec    *trace.Recorder

	result any

	shared []*SharedObject

	// handler, when non-nil, is consulted by every node's comm loop for
	// message kinds the runtime does not handle itself (the extension point
	// of the serving layer). Install it with SetMessageHandler before Run.
	handler func(ctx *Context, m network.Message) bool

	// downDeclared is the master's local view of nodes it crashed through
	// CrashAsync. It is only touched by node-0 processes, and lets
	// the final shutdown fall back from the binomial-tree broadcast (which a
	// dead interior node would sever, stranding its subtree's comm loops) to
	// per-node unicasts.
	downDeclared []bool
	anyDown      bool

	// services marks a RunServices run: no idle workers, and a normal-mode
	// Spawn panics. Set before the run starts, read-only during it.
	services bool
}

// Node is one cluster node's runtime state.
type Node struct {
	ID  int
	rt  *Runtime
	k   *simnet.Kernel // the kernel of the partition owning this node
	ep  *network.Endpoint
	dev any // opaque slot for the Cashmere layer (device scheduler)

	// rng is this node's victim stream, a PCG whose two words of state
	// are seeded with the kernel seed and the node id + 1: the streams are
	// distinct, fully determined by (seed, node), and so independent of the
	// partition layout. Seeding costs two stores.
	rng rand.PCG
	// pool runs the node's short-lived helper activities (steal-data
	// transfers, many-core threads) on recycled processes instead of
	// spawning a named goroutine per activity.
	pool *simnet.ProcPool

	deque       []*Job
	thieves     map[int]*thief    // per-worker steal-probe state machines, reused across steal rounds
	outstanding map[uint64]outRec // jobs stolen from us, by job ID
	jobSeq      uint64
	done        bool
	dead        bool
	// draining marks a node that is being decommissioned: its workers stop
	// stealing new work, foreign-owned deque jobs are shipped home, and its
	// own jobs remain stealable so the cluster absorbs them.
	draining bool
	// peerDown is this node's local failure-detector view: peerDown[i] means
	// node i announced its death with a node_down message. Victim selection
	// consults only this view — never another node's memory — so crash
	// handling is partition-safe.
	peerDown []bool
	// peers caches the ids of the other nodes not in peerDown, in id order,
	// for victim selection; nil means it must be rebuilt. Every write to
	// peerDown resets it.
	peers []int

	// The comm loop's state between steps (see commStep): the control
	// replies still to send, and whether the front one is sent and the
	// loop holds its overhead.
	out  []ctlSend
	sent bool
	// hookCtx is the frame the comm loop hands the message handler hook,
	// reset for every message (see SetMessageHandler).
	hookCtx Context

	// Stats (per node; Runtime sums them on demand).
	jobsExecuted   int64
	jobsSpawned    int64
	stealsOK       int64
	stealsFailed   int64
	jobsReExecuted int64
	jobsMigrated   int64
}

type outRec struct {
	job   *Job
	thief int
}

// New creates a runtime over n nodes with the given fabric configuration on a
// standalone kernel. Node 0 is the master.
func New(k *simnet.Kernel, n int, netCfg network.Config, cfg Config, rec *trace.Recorder) *Runtime {
	return NewPartitioned(simnet.Single(k), n, netCfg, cfg, rec)
}

// NewPartitioned creates a runtime over n nodes on a partitioned scheduler.
// Every node's procs, deque, pool, counters and random stream live on the
// kernel of the partition that owns it.
func NewPartitioned(ps *simnet.Partitioned, n int, netCfg network.Config, cfg Config, rec *trace.Recorder) *Runtime {
	if cfg.WorkersPerNode <= 0 {
		cfg.WorkersPerNode = 1
	}
	if cfg.MaxIdleBackoff <= 0 {
		cfg.MaxIdleBackoff = 50 * time.Millisecond
	}
	rt := &Runtime{
		ps:     ps,
		k:      ps.Kernels()[0],
		fabric: network.NewPartitioned(ps, n, netCfg),
		cfg:    cfg,
		rec:    rec,
	}
	rt.fabric.SetRecorder(rec)
	seed := ps.Seed()
	for i := 0; i < n; i++ {
		nk := ps.KernelFor(i)
		node := &Node{
			ID:          i,
			rt:          rt,
			k:           nk,
			ep:          rt.fabric.Endpoint(i),
			pool:        simnet.NewProcPool(nk, fmt.Sprintf("satin.pool.%d", i)),
			thieves:     map[int]*thief{},
			outstanding: map[uint64]outRec{},
			peerDown:    make([]bool, n),
		}
		node.rng.Seed(uint64(seed), uint64(i+1))
		rt.nodes = append(rt.nodes, node)
	}
	rt.downDeclared = make([]bool, n)
	return rt
}

// Scheduler returns the partitioned scheduler the runtime executes on.
func (rt *Runtime) Scheduler() *simnet.Partitioned { return rt.ps }

// SetMessageHandler installs a hook consulted by every node's comm loop for
// message kinds the runtime itself does not understand. The hook runs inside
// a step of the receiving node's comm loop, a step process, so it must never
// block: any Hold, Send, StepUntil or Await on ctx.Proc() panics. Work
// that takes virtual time, replies included, must be started with
// Node.GoLocal or Node.GoLocalStep. The comm loop reuses ctx for every
// message, so the hook must not keep it, nor hand it to that work. Must be
// installed before Run (installing it later would race with comm loops on
// other partitions). The returned bool reports whether the hook consumed
// the message.
func (rt *Runtime) SetMessageHandler(h func(ctx *Context, m network.Message) bool) {
	rt.handler = h
}

// Fabric returns the network fabric.
func (rt *Runtime) Fabric() *network.Fabric { return rt.fabric }

// Nodes reports the number of nodes.
func (rt *Runtime) Nodes() int { return len(rt.nodes) }

// Node returns node i.
func (rt *Runtime) Node(i int) *Node { return rt.nodes[i] }

// SetDeviceState attaches opaque per-node state (used by the Cashmere layer
// for its device scheduler).
func (n *Node) SetDeviceState(v any) { n.dev = v }

// DeviceState returns the state attached with SetDeviceState.
func (n *Node) DeviceState() any { return n.dev }

// GoLocal runs fn on one of the node's pooled processes, on the node's own
// kernel. It is the escape hatch for message handlers that must not block the
// comm loop.
func (n *Node) GoLocal(fn func(ctx *Context)) {
	n.pool.Go(func(p *simnet.Proc) {
		fn(&Context{p: p, node: n, manyCore: true})
	})
}

// GoLocalStep is GoLocal for work written as a step function (see
// simnet.ProcPool.GoStep): step runs on one of the node's pooled processes
// from the same wake fn would start at, and its waits cost no coroutine
// switch.
func (n *Node) GoLocalStep(step func(p *simnet.Proc) bool) {
	n.pool.GoStep(step)
}

// JobsExecuted sums the per-node executed-job counters.
func (rt *Runtime) JobsExecuted() int64 { return rt.sum(func(n *Node) int64 { return n.jobsExecuted }) }

// JobsSpawned sums the per-node spawn counters.
func (rt *Runtime) JobsSpawned() int64 { return rt.sum(func(n *Node) int64 { return n.jobsSpawned }) }

// StealsOK sums the per-node successful-steal counters.
func (rt *Runtime) StealsOK() int64 { return rt.sum(func(n *Node) int64 { return n.stealsOK }) }

// StealsFailed sums the per-node failed-steal counters.
func (rt *Runtime) StealsFailed() int64 { return rt.sum(func(n *Node) int64 { return n.stealsFailed }) }

// JobsReExecuted sums the per-node re-execution counters.
func (rt *Runtime) JobsReExecuted() int64 {
	return rt.sum(func(n *Node) int64 { return n.jobsReExecuted })
}

// JobsMigrated sums the per-node drain-migration counters: jobs a draining
// node shipped back to their owners.
func (rt *Runtime) JobsMigrated() int64 {
	return rt.sum(func(n *Node) int64 { return n.jobsMigrated })
}

// sum folds a per-node counter. Must not be called while the simulation runs.
func (rt *Runtime) sum(f func(*Node) int64) int64 {
	var t int64
	for _, n := range rt.nodes {
		t += f(n)
	}
	return t
}

// RunServices is Run for a run that spawns no stealable job: it starts no
// idle workers, so no node probes victims for work that cannot exist. The
// comm loops, GoOn/GoLocal, many-core Spawn, drain and shutdown behave
// exactly as under Run. Work is placed with GoOn or spawned after
// EnableManyCore; a normal-mode Spawn panics. Having nothing to steal is a
// property of the run, not of the cluster's configuration, which keeps its
// WorkersPerNode for runs that do steal.
func (rt *Runtime) RunServices(main func(ctx *Context) any) (any, simnet.Time) {
	rt.services = true
	return rt.Run(main)
}

// Run executes main as the root job on the master node and runs the
// simulation to completion. It returns main's result and the virtual time
// taken.
func (rt *Runtime) Run(main func(ctx *Context) any) (any, simnet.Time) {
	for _, n := range rt.nodes {
		n := n
		// Every node-bound process is spawned onto its node's event stream:
		// the stamps it produces are then independent of which partition the
		// node landed on (see simnet.Kernel.SpawnOn).
		n.k.SpawnStepOn(n.ID, fmt.Sprintf("satin.comm.%d", n.ID), n.commStep)
		if rt.services {
			continue
		}
		for w := 0; w < rt.cfg.WorkersPerNode; w++ {
			w := w
			if n.ID == 0 && w == 0 {
				continue // worker 0 of the master runs main
			}
			n.k.SpawnOn(n.ID, fmt.Sprintf("satin.worker.%d.%d", n.ID, w), func(p *simnet.Proc) {
				n.workerLoop(p, w)
			})
		}
	}
	var finished simnet.Time
	rt.k.SpawnOn(0, "satin.main", func(p *simnet.Proc) {
		ctx := &Context{p: p, node: rt.nodes[0], workerID: 0}
		rt.result = main(ctx)
		rt.nodes[0].done = true
		finished = p.Now()
		// Tell every comm loop to shut down; remote nodes flip their own done
		// flags when the broadcast reaches them, so no partition ever reads
		// another's memory. When the master crashed nodes itself, a dead
		// interior node would sever the binomial tree and strand its subtree's
		// comm loops, so fall back to unicasts to the declared-live nodes.
		if !rt.anyDown {
			rt.nodes[0].ep.Broadcast(p, "shutdown", 64, nil)
		} else {
			for i := 1; i < len(rt.nodes); i++ {
				if !rt.downDeclared[i] {
					rt.nodes[0].ep.Send(p, i, "shutdown", 64, nil)
				}
			}
		}
	})
	// Drain remaining events (idle workers noticing done at their next
	// wake, the other nodes' comm loops ending on shutdown); the reported
	// completion time is when main returned, and the clock stops within one
	// idle backoff of it. Processes still parked afterwards (the master's
	// comm loop, idle pool runners, waiters that will never be woken) are
	// released so a finished run leaves no goroutines behind.
	rt.ps.Run(0)
	rt.ps.Close()
	return rt.result, finished
}

// workerLoop is the top-level scheduling loop of an idle worker: run local
// work, otherwise steal from a random victim, backing off exponentially
// while the whole cluster is busy. The search for work is the worker's
// thief, stepped inline by the event loop (simnet.Proc.StepUntil), so the
// worker's coroutine resumes only with a job in hand, or to end once the
// node is done or dead.
func (n *Node) workerLoop(p *simnet.Proc, id int) {
	t := n.thief(id)
	t.cap = n.rt.cfg.MaxIdleBackoff
	t.backoff = n.rt.cfg.StealBackoff
	for {
		t.phase = seekLocal
		p.StepUntil(t.step)
		job := t.take()
		if job == nil {
			return
		}
		n.runJob(p, id, job)
		t.backoff = n.rt.cfg.StealBackoff
	}
}

// GoOn runs fn as a many-core-mode frame on node i, on a pooled process
// starting at the current virtual time. It is the placement hook of the
// serving layer: long-lived per-node dispatcher threads are not stealable
// jobs, so they bypass the deque and run directly where they are put. fn
// may block on virtual-time primitives and drive device launches through
// the Cashmere kernel front-end. Must be called from inside the running
// simulation.
func (rt *Runtime) GoOn(node int, fn func(ctx *Context)) {
	rt.nodes[node].GoLocal(fn)
}

// popLocal takes the newest local job (depth-first execution order).
func (n *Node) popLocal() *Job {
	if len(n.deque) == 0 {
		return nil
	}
	j := n.deque[len(n.deque)-1]
	n.deque = n.deque[:len(n.deque)-1]
	n.noteQueueDepth()
	return j
}

// popSteal takes a job for a thief: the oldest (largest) by default. It
// never hands out a job another node owns. Such a job rests here only
// because its grant arrived after the probe that asked for it timed out,
// and passing it on could bounce it between nodes forever — its owner, for
// one, would steal it back and lose it again the same way. This node runs
// it, or a drain ships it home.
func (n *Node) popSteal() *Job {
	for k := range n.deque {
		i := k
		if !n.rt.cfg.StealOldest {
			i = len(n.deque) - 1 - k
		}
		if j := n.deque[i]; j.owner == n.ID {
			if i == 0 {
				n.deque = n.deque[1:]
			} else {
				n.deque = append(n.deque[:i], n.deque[i+1:]...)
			}
			n.noteQueueDepth()
			return j
		}
	}
	return nil
}

// thief returns the search-for-work state machine of the given key (a
// worker id; a frame blocked in Sync uses the id plus 1000), creating it on
// first use.
func (n *Node) thief(key int) *thief {
	t := n.thieves[key]
	if t == nil {
		t = &thief{n: n, key: key, reply: simnet.NewChan[*Job](n.k)}
		t.step = t.run
		n.thieves[key] = t
	}
	return t
}

// victim picks a random node other than self that this node believes to be
// alive, from the node's own random stream. Liveness comes from the node's
// local peerDown view, updated by node_down announcements — never from
// another node's memory, so victim selection is partition-safe. A stale view
// only costs a timed-out probe.
func (n *Node) victim() int {
	if n.peers == nil {
		n.peers = make([]int, 0, len(n.rt.nodes))
		for _, c := range n.rt.nodes {
			if c.ID != n.ID && !n.peerDown[c.ID] {
				n.peers = append(n.peers, c.ID)
			}
		}
	}
	if len(n.peers) == 0 {
		return -1
	}
	return n.peers[uniform(&n.rng, len(n.peers))]
}

// uniform draws an integer from [0, n) off src: a mask when n is a power of
// two, else Lemire's multiply-shift with rejection. It is the reduction
// math/rand/v2's Rand.IntN makes on 64-bit platforms, done here so that the
// draws are the same on every platform and Go version.
func uniform(src *rand.PCG, n int) int {
	b := uint64(n)
	if b&(b-1) == 0 {
		return int(src.Uint64() & (b - 1))
	}
	hi, lo := bits.Mul64(src.Uint64(), b)
	if lo < b {
		thresh := -b % b
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), b)
		}
	}
	return int(hi)
}

// thief is one worker's search for work as a state machine, stepped by
// simnet.Proc.StepUntil on the process of the worker (or Sync frame) it
// searches for. It looks for local work first; then, unless the node
// drains, a steal round probes up to StealAttempts random victims. A probe
// posts its request (network.Endpoint.PostControl) and at once waits for
// the grant or denial, up to StealTimeout after the request's PerMessageCPU
// overhead ends — no reply can come sooner, so the thief needs no wake at
// that end — and then up to dataTimeout for a granted job's input data.
// After a failed round the thief backs off and searches again, doubling
// its backoff while it is below cap. A Sync frame's thief also waits on
// the child its frame syncs on (child), and hands back as soon as that
// child is done. A failed probe thus costs the thief one wake, at its
// reply or its timeout, and the run's trajectory is that of the same
// protocol written as blocking calls, which also held the overhead.
//
// The request and every reply name the thief by pointer and the probe by
// its sequence number. Only the thief's own node follows the pointer, to
// the pending flag and the number of the probe that still waits for its
// answer; a reply to any other probe is late (see handle). The victim only
// copies both into its replies. The reply channel is built once and step is
// bound once. The request, with the denial it carries (which a victim with
// nothing to give answers with), travels as a pointer and is reused by the
// next probe once its own answer came back, so a failed probe allocates
// nothing; a probe that timed out leaves its request to the victim and the
// next probe builds a new one.
type thief struct {
	n       *Node
	key     int // the thief's key in n.thieves
	reply   *simnet.Chan[*Job]
	req     *stealReq               // the request to send next, nil when one must be built
	seq     uint64                  // the number of the latest probe
	step    func(*simnet.Proc) bool // run, bound once
	pending bool                    // probe seq is out: its replies go to reply

	child   *simnet.Future[any] // a Sync frame's: the child it waits for; nil for an idle worker's
	cap     simnet.Duration     // backoff doubles while below cap
	backoff simnet.Duration     // the next backoff hold

	phase      thiefPhase
	attempt    int         // probes made in this round
	victim     int         // the probe's victim
	probeStart simnet.Time // when the probe began
	deadline   simnet.Time // end of the reply wait in progress
	job        *Job        // the job found, handed to the process's body
}

// thiefPhase is where a thief resumes at its next step.
type thiefPhase uint8

const (
	seekLocal  thiefPhase = iota // check for local work, then start a round
	roundStart                   // start a round's next probe
	awaitGrant                   // waiting for the grant or denial
	awaitData                    // waiting for a granted job's input data
	backingOff                   // holding the backoff after a failed round
)

// take returns the job the thief found, if any, and forgets it.
func (t *thief) take() *Job {
	job := t.job
	t.job = nil
	return job
}

// run is the thief's step: it advances the protocol from the wake that
// called it until it must wait again (returning true with the wake armed),
// or until the search ends (returning false): with t.job set when a job was
// found, with t.job nil when a Sync frame's child is done or the node is
// done (an idle worker) or dead.
func (t *thief) run(p *simnet.Proc) bool {
	n := t.n
	cfg := &n.rt.cfg
	switch t.phase {
	case awaitGrant, awaitData:
		t.reply.Unwait(p)
	case backingOff:
		if t.child != nil {
			if t.child.Done() {
				return false
			}
			t.child.Unwait(p)
		}
		if t.backoff < t.cap {
			t.backoff *= 2
		}
		t.phase = seekLocal
	}
	for {
		switch t.phase {
		case seekLocal:
			// An idle worker ends with its node; a Sync frame's search
			// ends only with its child, or with a crash.
			if n.dead || n.done && t.child == nil {
				return false
			}
			if t.job = n.popLocal(); t.job != nil {
				return false
			}
			t.phase = roundStart
		case roundStart:
			// An idle worker's round ends with its node: the peers it
			// would probe next may have ended their comm loops already.
			if n.done && t.child == nil {
				return false
			}
			// A draining node finishes what it has but never pulls new
			// work in, not even with the rest of a round begun before the
			// drain.
			if n.draining || len(n.rt.nodes) <= 1 || t.attempt == max(cfg.StealAttempts, 1) {
				return t.roundFailed(p)
			}
			if t.victim = n.victim(); t.victim < 0 {
				return t.roundFailed(p)
			}
			t.probeStart = p.Now()
			t.pending = true
			t.seq++
			if t.req == nil {
				t.req = &stealReq{Thief: n.ID, Worker: t, Deny: stealReply{Worker: t}}
			}
			t.req.Seq, t.req.Deny.Seq = t.seq, t.seq
			// No reply can come before the request's overhead ends, so the
			// thief waits for it from now on, until StealTimeout after
			// that end. A request lost at the sender spends no overhead,
			// and the thief waits out the timeout from now all the same.
			free, _ := n.ep.PostControl(t.victim, "steal_request", 64, t.req)
			t.phase, t.deadline = awaitGrant, free.Add(cfg.StealTimeout)
		case awaitGrant, awaitData:
			job, ok := t.reply.TryRecv()
			if !ok {
				if p.Now() < t.deadline {
					t.reply.Await(p, t.deadline)
					return true
				}
			} else if job == jobGranted && t.phase == awaitGrant {
				// The job's input data is in flight; it may be arbitrarily
				// large, so wait for as long as the transfer takes.
				t.phase, t.deadline = awaitData, p.Now().Add(dataTimeout)
				continue
			}
			if t.probed(p, job, ok) {
				return false
			}
		}
	}
}

// probed ends a probe whose reply wait returned job (ok false on timeout)
// and reports whether the probe stole a job, which t.job then holds.
// Otherwise the round goes on with its next probe. Only the probe's own
// replies reach the channel, and the wait ends on its last one or on the
// timeout, so the channel is empty here.
func (t *thief) probed(p *simnet.Proc, job *Job, ok bool) bool {
	n, rt := t.n, t.n.rt
	t.pending = false
	if !ok {
		// The victim may still hold the request: leave it there.
		t.req = nil
	}
	if ok && job != nil && job != jobGranted {
		n.stealsOK++
		if rt.rec.Enabled() {
			// Thief-side steal latency: request send to job-in-hand,
			// including the input-data transfer (Fig. 16's narrow steal
			// bars; the lane is the probing worker's).
			rt.rec.Add(trace.Span{
				Node: n.ID, Queue: "q0", Kind: trace.KindSteal,
				Label: "steal:" + job.Desc.Name, Start: t.probeStart, End: p.Now(),
				Attrs: []trace.Attr{
					trace.Int64Attr("victim", int64(t.victim)),
					trace.Int64Attr("input_bytes", job.Desc.InputBytes),
				},
			})
			rt.rec.CounterAdd(n.ID, "satin.steals_ok", p.Now(), 1)
		}
		t.job, t.attempt = job, 0
		return true
	}
	n.stealsFailed++
	rt.rec.CounterAdd(n.ID, "satin.steals_failed", p.Now(), 1)
	t.attempt++
	t.phase = roundStart
	return false
}

// roundFailed ends a search round that found nothing, or that a draining
// node skipped, with the backoff: a Sync frame's thief hands back at once
// if its child is done, and otherwise wakes also when the child completes.
func (t *thief) roundFailed(p *simnet.Proc) bool {
	t.attempt = 0
	if t.child != nil {
		if t.child.Done() {
			return false
		}
		t.child.Arm(p)
	}
	t.phase = backingOff
	p.Arm(t.backoff)
	return true
}

type stealReq struct {
	Thief  int        // the thief's node
	Worker *thief     // the probing thief, handed back in every reply
	Seq    uint64     // the probe's number, handed back in every reply
	Deny   stealReply // the thief's own denial, {Worker, Seq, nil}
}

type stealReply struct {
	Worker *thief
	Seq    uint64 // the probe it answers
	Job    *Job
}

// jobGranted is the sentinel grant message of the two-phase steal protocol.
var jobGranted = &Job{}

// dataTimeout bounds the wait for a granted job's input transfer. It only
// guards against pathological congestion; normal transfers always finish.
const dataTimeout = 120 * time.Second

type resultMsg struct {
	JobID uint64
	Value any
}

// ctlSend is a 64-byte control reply queued by the comm loop. then, when
// set, runs once the send completed (at once if the message was dropped),
// and reports whether the comm loop ends. A ctlSend with no kind only runs
// then.
type ctlSend struct {
	to      int
	kind    string
	payload any
	then    func() bool
}

// reply queues a control reply from the comm loop.
func (n *Node) reply(to int, kind string, payload any, then func() bool) {
	n.out = append(n.out, ctlSend{to: to, kind: kind, payload: payload, then: then})
}

// commStep is one step of the node's comm loop, a step process that
// services the inbox: steal requests and replies, results for jobs stolen
// from this node, shared-object updates, and shutdown. It handles each
// message and sends the replies it queued one at a time, arming its next
// wake for every wait. An empty inbox is awaited with no deadline: only the
// loop itself ends a node (done on shutdown, dead in die), and the master's
// loop, which no shutdown reaches, stays parked until Run closes the
// kernels.
//
// A reply is posted when its send begins (network.Endpoint.PostControl),
// and the loop holds the send's overhead under the stamp that the wake at
// its end takes (simnet.Kernel.Reserve). It wakes there when the end has
// work waiting: another queued reply, or a continuation to run. Otherwise
// it awaits the inbox no sooner than the end, so an idle loop wakes only
// for a message, at the same place among that instant's events.
func (n *Node) commStep(p *simnet.Proc) bool {
	for {
		if n.sent {
			n.sent = false
			if n.popReply() {
				return false
			}
		}
		if len(n.out) > 0 {
			s := &n.out[0]
			if s.kind != "" {
				if free, ok := n.ep.PostControl(s.to, s.kind, 64, s.payload); ok {
					at := n.k.Reserve()
					if s.then != nil || len(n.out) > 1 {
						n.sent = true
						p.ArmAt(free, at)
						return true
					}
					n.popReply()
					n.ep.AwaitAfter(p, free, at)
					return true
				}
			}
			if n.popReply() {
				return false
			}
			continue
		}
		m, ok := n.ep.TryRecv()
		if !ok {
			n.ep.Await(p)
			return true
		}
		if n.handle(p, m) {
			return false
		}
	}
}

// popReply drops the front reply and runs its continuation.
func (n *Node) popReply() bool {
	then := n.out[0].then
	k := copy(n.out, n.out[1:])
	n.out[k] = ctlSend{}
	n.out = n.out[:k]
	return then != nil && then()
}

// handle reacts to one inbox message on the comm loop's process p, queueing
// any replies; it reports whether the comm loop ends.
func (n *Node) handle(p *simnet.Proc, m network.Message) bool {
	switch m.Kind {
	case "shutdown":
		n.done = true
		return true
	case "steal_request":
		req := m.Payload.(*stealReq)
		job := n.popSteal()
		if job == nil {
			n.reply(req.Thief, "steal_reply", &req.Deny, nil)
			break
		}
		n.outstanding[job.ID] = outRec{job: job, thief: req.Thief}
		if n.rt.rec.Enabled() {
			n.span(trace.KindSteal, "stolen:"+job.Desc.Name, p.Now())
		}
		// Two-phase reply: a tiny grant immediately, then, once it is
		// sent, the job with its input data from a separate sender
		// process, so a large transfer neither blocks the comm loop nor
		// races the thief's grant timeout.
		ep, to, worker, seq := n.ep, req.Thief, req.Worker, req.Seq
		n.reply(to, "steal_reply", &stealReply{Worker: worker, Seq: seq, Job: jobGranted}, func() bool {
			n.pool.Go(func(sp *simnet.Proc) {
				ep.Send(sp, to, "steal_reply", job.Desc.InputBytes, &stealReply{Worker: worker, Seq: seq, Job: job})
			})
			return false
		})
	case "steal_reply":
		rep := m.Payload.(*stealReply)
		if t := rep.Worker; t.pending && rep.Seq == t.seq {
			t.reply.Send(rep.Job)
		} else if rep.Job != nil && rep.Job != jobGranted {
			// A reply to a probe that gave up waiting (a later probe may
			// be waiting now): keep the job rather than lose it, or send
			// it home if this node drains. A late grant or denial ends no
			// probe.
			n.deque = append(n.deque, rep.Job)
			if n.draining {
				n.drain()
			} else {
				n.noteQueueDepth()
			}
		}
	case "result":
		res := m.Payload.(resultMsg)
		if rec, ok := n.outstanding[res.JobID]; ok {
			delete(n.outstanding, res.JobID)
			if !rec.job.result.Done() {
				rec.job.result.Complete(res.Value)
			}
		}
	case "shared_update":
		up := m.Payload.(sharedUpdate)
		n.rt.shared[up.Index].applyLocal(n.ID, up.Args)
	case "satin_drain":
		n.drain()
	case "satin_undrain":
		// A drained node returning to service resumes stealing.
		n.draining = false
	case "drain_job":
		// A draining node returned a job of ours. Queue it unless it is no
		// longer out with the sender: the sender's node_down came first.
		job := m.Payload.(*Job)
		if rec, ok := n.outstanding[job.ID]; !ok || rec.thief != int(m.From) {
			break
		}
		delete(n.outstanding, job.ID)
		n.deque = append(n.deque, job)
		n.jobsMigrated++
		n.rt.rec.CounterAdd(n.ID, "satin.migrations", p.Now(), 1)
		n.noteQueueDepth()
	case "satin_die":
		// Crash injection (CrashAsync). Drain, so no owner re-queues a job
		// that is still here; then announce the death to every peer — the
		// endpoint drops all traffic once dead — with unicasts rather than
		// the binomial broadcast, which an earlier correlated crash could
		// sever; die after the last one.
		n.drain()
		for i := range n.rt.nodes {
			if i != n.ID {
				n.reply(i, "node_down", n.ID, nil)
			}
		}
		n.out = append(n.out, ctlSend{then: n.die})
	case "node_down":
		// A peer crashed: stop picking it as a victim, and re-queue every
		// job it had stolen from us for re-execution — Satin's fault
		// tolerance. Map iteration order is not deterministic, so collect
		// and sort by job ID before touching the deque.
		id := m.Payload.(int)
		n.peerDown[id] = true
		n.peers = nil
		jids := make([]uint64, 0, len(n.outstanding))
		for jid, rec := range n.outstanding {
			if rec.thief == id {
				jids = append(jids, jid)
			}
		}
		sort.Slice(jids, func(a, b int) bool { return jids[a] < jids[b] })
		for _, jid := range jids {
			rec := n.outstanding[jid]
			delete(n.outstanding, jid)
			n.deque = append(n.deque, rec.job)
			n.jobsReExecuted++
			n.rt.rec.CounterAdd(n.ID, "satin.reexecutions", p.Now(), 1)
		}
		if len(jids) > 0 {
			n.noteQueueDepth()
		}
	default:
		if h := n.rt.handler; h != nil {
			n.hookCtx = Context{p: p, node: n, manyCore: true}
			h(&n.hookCtx, m)
		}
	}
	return false
}

// drain starts a decommission (satin_drain) or a crash (satin_die): the
// node pulls no new work in (see thief.run) and ships the foreign-owned jobs
// in its deque home. Its own jobs stay stealable, so the cluster absorbs them.
func (n *Node) drain() {
	n.draining = true
	keep := n.deque[:0]
	for _, job := range n.deque {
		if job.owner == n.ID {
			keep = append(keep, job)
			continue
		}
		n.pool.Go(func(sp *simnet.Proc) {
			n.ep.Send(sp, job.owner, "drain_job", job.Desc.InputBytes, job)
		})
	}
	n.deque = keep
	n.noteQueueDepth()
}

// die is the end of a message-driven crash, after the node_down
// announcements went out: the node drops off the network and its comm loop
// ends.
func (n *Node) die() bool {
	n.rt.rec.CounterAdd(n.ID, "satin.crashes", n.k.Now(), 1)
	n.dead = true
	n.ep.Kill()
	n.deque = nil
	n.noteQueueDepth()
	return true
}

func (n *Node) span(kind trace.Kind, label string, start simnet.Time) {
	n.rt.rec.Add(trace.Span{
		Node: n.ID, Queue: "q0", Kind: kind, Label: label,
		Start: start, End: n.k.Now(),
	})
}

// noteQueueDepth samples the deque-depth gauge after a deque mutation.
func (n *Node) noteQueueDepth() {
	if n.rt.rec.Enabled() {
		n.rt.rec.GaugeSet(n.ID, "satin.queue_depth", n.k.Now(), int64(len(n.deque)))
	}
}

// runJob executes a job on this node (as its own frame) and delivers the
// result: locally by completing the future, or over the network if the job
// was stolen from another node.
func (n *Node) runJob(p *simnet.Proc, workerID int, job *Job) {
	rt := n.rt
	n.jobsExecuted++
	rt.rec.CounterAdd(n.ID, "satin.jobs_executed", p.Now(), 1)
	ctx := &Context{p: p, node: n, workerID: workerID}
	v := job.fn(ctx)
	if job.owner == n.ID {
		if !job.result.Done() {
			job.result.Complete(v)
		}
		return
	}
	n.ep.Send(p, job.owner, "result", job.Desc.ResultBytes, resultMsg{JobID: job.ID, Value: v})
}

// DrainAsync asks node id to decommission itself: its workers stop stealing,
// foreign-owned queued jobs are shipped back to their owners, and its own
// jobs remain stealable until the cluster absorbs them. The request travels
// as a message, so it is safe at any partition count. Must be called from a
// process running on node 0's event stream (the serving layer's frontend).
func (rt *Runtime) DrainAsync(p *simnet.Proc, id int) {
	if id == 0 {
		panic("satin: cannot drain the master")
	}
	rt.nodes[0].ep.Send(p, id, "satin_drain", 64, nil)
}

// UndrainAsync reverses DrainAsync: the node's workers resume stealing.
// Must be called from a process running on node 0's event stream.
func (rt *Runtime) UndrainAsync(p *simnet.Proc, id int) {
	rt.nodes[0].ep.Send(p, id, "satin_undrain", 64, nil)
}

// CrashAsync crashes node id, Satin's fault-tolerance model: the victim
// drains, announces its death to every peer, and then drops off the network
// with its own jobs; each owner re-queues the jobs the victim had stolen
// from it for re-execution. The crash travels as messages and no node
// touches another's memory, so it is safe at any partition count. Must be
// called from a process running on node 0's event stream.
func (rt *Runtime) CrashAsync(p *simnet.Proc, id int) {
	if id == 0 {
		panic("satin: cannot crash the master in this reproduction")
	}
	rt.downDeclared[id] = true
	rt.anyDown = true
	rt.nodes[0].ep.Send(p, id, "satin_die", 64, nil)
}
