package simnet

import "fmt"

// ProcPool recycles parked simulation processes to run short-lived tasks.
// Spawning a fresh process per task — the pattern the network and Satin
// layers used for every message delivery — costs a coroutine, a Proc and a
// formatted name each time; on message-heavy simulations that dominates the
// event loop. A pool amortizes all of it: a finished runner waits on its
// work queue and the next Go or GoStep reuses it, so steady-state task
// traffic spawns nothing.
//
// Tasks start at the current virtual time, exactly like k.Spawn(name, fn),
// and the pool grows by one runner whenever every existing runner is busy,
// so concurrency in virtual time is unlimited. Reuse order is deterministic
// (most recently idled runner first), keeping simulations reproducible.
//
// An idle runner waits for work as a step of its own process (see
// Proc.StepUntil), so a step task (GoStep) runs from its first wake to its
// last without a coroutine switch; only a coroutine task (Go) resumes the
// runner's body. Both kinds share the runners, so which kind a task is
// changes no spawn, wake or stamp.
type ProcPool struct {
	k    *Kernel
	name string
	idle []*poolRunner
	n    int // runners ever spawned, for naming and stats
}

type poolRunner struct {
	pp   *ProcPool
	ch   *Chan[poolTask]
	task poolTask         // the task in hand
	step func(*Proc) bool // run, bound once
}

// poolTask is one task: a coroutine body fn or a step function step.
type poolTask struct {
	fn   func(p *Proc)
	step func(p *Proc) bool
}

// NewProcPool returns an empty pool whose runners are named name.1,
// name.2, ...
func NewProcPool(k *Kernel, name string) *ProcPool {
	return &ProcPool{k: k, name: name}
}

// Go runs fn on a pooled process starting at the current virtual time. Like
// a process body, fn may Hold, wait through StepUntil, and spawn further
// tasks (including on the same pool).
func (pp *ProcPool) Go(fn func(p *Proc)) { pp.submit(poolTask{fn: fn}) }

// GoStep runs step as a step task on a pooled process: step is called at
// the wake at which Go's fn would start, and again at every wake it arms,
// as a step of the runner's process, until it returns false; the runner
// then returns to the pool. The rules of a step process apply (see
// SpawnStepOn): step must not block, and must arm a wake whenever it
// returns true.
func (pp *ProcPool) GoStep(step func(p *Proc) bool) { pp.submit(poolTask{step: step}) }

func (pp *ProcPool) submit(t poolTask) {
	if n := len(pp.idle); n > 0 {
		r := pp.idle[n-1]
		pp.idle = pp.idle[:n-1]
		r.ch.Send(t)
		return
	}
	r := &poolRunner{pp: pp, ch: NewChan[poolTask](pp.k)}
	r.step = r.run
	pp.n++
	pp.k.Spawn(fmt.Sprintf("%s.%d", pp.name, pp.n), r.body)
	r.ch.Send(t)
}

// body is a runner's process: it waits for tasks and runs step tasks
// inside StepUntil, and resumes only to run a coroutine task.
func (r *poolRunner) body(p *Proc) {
	for {
		p.StepUntil(r.step)
		fn := r.task.fn
		r.task = poolTask{}
		fn(p)
		r.pp.idle = append(r.pp.idle, r)
	}
}

// run is a runner's step: it advances the step task in hand, and between
// tasks takes the next one or awaits it.
// It hands back to the body with a coroutine task in hand.
func (r *poolRunner) run(p *Proc) bool {
	for {
		if r.task.step != nil {
			if r.task.step(p) {
				return true
			}
			r.task = poolTask{}
			r.pp.idle = append(r.pp.idle, r)
		}
		r.ch.Unwait(p)
		t, ok := r.ch.TryRecv()
		if !ok {
			r.ch.Await(p, -1)
			return true
		}
		r.task = t
		if t.step == nil {
			return false
		}
	}
}

// Spawned reports how many runner processes the pool has ever created —
// the peak number of simultaneously active tasks.
func (pp *ProcPool) Spawned() int { return pp.n }

// Idle reports how many runners are currently parked awaiting work.
func (pp *ProcPool) Idle() int { return len(pp.idle) }
