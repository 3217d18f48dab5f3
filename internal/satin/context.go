package satin

import (
	"fmt"

	"cashmere/internal/simnet"
	"cashmere/internal/trace"
)

// Context is the execution frame of a spawnable function: it tracks the
// frame's spawned children (for sync) and whether the frame runs in
// many-core mode (Sec. II-C.2 of the paper).
type Context struct {
	p        *simnet.Proc
	node     *Node
	workerID int
	manyCore bool
	children []*Job
	kids     [2]*Job // children's first backing array: most frames spawn two
}

// Proc returns the simulation process executing this frame; applications
// use it to charge modeled time and to drive the device runtime.
func (c *Context) Proc() *simnet.Proc { return c.p }

// NodeID reports the cluster node executing this frame.
func (c *Context) NodeID() int { return c.node.ID }

// Node returns the executing node.
func (c *Context) Node() *Node { return c.node }

// Runtime returns the runtime.
func (c *Context) Runtime() *Runtime { return c.node.rt }

// Tracing reports whether the run records trace spans, so callers build
// span labels (such as JobDesc.Name) only when they are kept.
func (c *Context) Tracing() bool { return c.node.rt.rec.Enabled() }

// ManyCore reports whether many-core spawn mode is enabled for this frame.
func (c *Context) ManyCore() bool { return c.manyCore }

// EnableManyCore switches this frame (and the frames of its children) to
// many-core mode: subsequent spawnable functions no longer generate jobs
// that other compute nodes can steal; instead each spawn creates a thread on
// this node, expressing parallelism across the node's many-core devices with
// the same divide-and-conquer constructs (Sec. II-C.2).
func (c *Context) EnableManyCore() { c.manyCore = true }

// Compute occupies the worker for d of modeled CPU time, recording a trace
// span. Applications use it for CPU leaf computations.
func (c *Context) Compute(d simnet.Duration, label string) {
	start := c.p.Now()
	c.p.Hold(d)
	if rec := c.node.rt.rec; rec.Enabled() {
		rec.Add(trace.Span{
			Node: c.node.ID, Queue: fmt.Sprintf("q%d", 1+c.workerID%3), Kind: trace.KindCPU,
			Label: label, Start: start, End: c.p.Now(),
		})
	}
}

// Spawn submits fn for asynchronous execution and returns its promise. In
// normal mode the job goes on the local deque, where this node's workers or
// remote thieves pick it up. In many-core mode the job runs on a fresh
// thread of this node, concurrently in virtual time with its siblings.
// Under RunServices, where no worker would ever run a stealable job, a
// normal-mode Spawn panics.
func (c *Context) Spawn(desc JobDesc, fn func(ctx *Context) any) *Promise {
	rt := c.node.rt
	if rt.services && !c.manyCore {
		panic(msgServicesSpawn)
	}
	c.node.jobsSpawned++
	rt.rec.CounterAdd(c.node.ID, "satin.spawns", c.p.Now(), 1)
	c.node.jobSeq++
	job := &Job{
		// Job IDs are node-scoped (node id in the high bits) so id assignment
		// needs no cross-node state and is identical in every partition layout.
		ID:    uint64(c.node.ID)<<40 | c.node.jobSeq,
		Desc:  desc,
		fn:    fn,
		owner: c.node.ID,
	}
	job.promise.job = job
	if c.children == nil {
		c.children = c.kids[:0]
	}
	c.children = append(c.children, job)
	c.p.Hold(rt.cfg.SpawnOverhead)
	if c.manyCore {
		job.frame = Context{node: c.node, workerID: c.workerID, manyCore: true}
		c.node.pool.Go(func(p *simnet.Proc) {
			job.frame.p = p
			v := job.fn(&job.frame)
			if !job.result.Done() {
				job.result.Complete(v)
			}
		})
		return &job.promise
	}
	c.node.deque = append(c.node.deque, job)
	c.node.noteQueueDepth()
	return &job.promise
}

// msgServicesSpawn is the panic value of a normal-mode Spawn under
// RunServices.
const msgServicesSpawn = "satin: stealable Spawn in a RunServices run, which starts no workers to run it; call ctx.EnableManyCore() before spawning, or place the work with Runtime.GoOn"

// Sync blocks until every child spawned by this frame has completed. While
// blocked (in normal mode) the worker helps: it runs local jobs and steals
// from random victims, which is what lets a single blocked parent keep a
// whole cluster busy. A draining node only runs its local jobs.
func (c *Context) Sync() {
	rt := c.node.rt
	backoff := rt.cfg.StealBackoff
	for {
		if c.node.dead {
			// The node crashed under this frame. Abandon: whoever spawned
			// the enclosing job re-executes it on a live node (Satin's
			// fault-tolerance model), so nothing here matters any more.
			return
		}
		var waitFor *Job
		for _, j := range c.children {
			if !j.result.Done() {
				waitFor = j
				break
			}
		}
		if waitFor == nil {
			break
		}
		if c.manyCore {
			// Children are local threads; wait for the first incomplete one.
			waitFor.result.Await(c.p)
			continue
		}
		// One search for work, by the frame's thief stepping on its process:
		// a local job, else one steal round unless the node drains.
		t := c.node.thief(c.workerID + 1000)
		t.phase = seekLocal
		c.p.StepUntil(t.step)
		if job := t.take(); job != nil {
			c.node.runJob(c.p, c.workerID, job)
			backoff = rt.cfg.StealBackoff
			continue
		}
		// Nothing to help with: sleep until the child completes, but wake
		// periodically to retry stealing (exponential backoff keeps event
		// volume bounded during long remote leaves).
		if _, ok := waitFor.result.AwaitTimeout(c.p, backoff); !ok && backoff < 8*rt.cfg.MaxIdleBackoff {
			backoff *= 2
		}
	}
	// Drop the children, so a finished subtree is not kept alive through
	// the frames embedded in its jobs.
	clear(c.children)
	c.children = c.children[:0]
}
