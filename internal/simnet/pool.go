package simnet

import "fmt"

// ProcPool recycles parked simulation processes to run short-lived tasks.
// Spawning a fresh process per task — the pattern the network and Satin
// layers used for every message delivery — costs a coroutine, a Proc and a
// formatted name each time; on message-heavy simulations that dominates the
// event loop. A pool amortizes all of it: a finished runner parks on its
// work queue and the next Go reuses it, so steady-state task traffic spawns
// nothing.
//
// Tasks start at the current virtual time, exactly like k.Spawn(name, fn),
// and the pool grows by one runner whenever every existing runner is busy,
// so concurrency in virtual time is unlimited. Reuse order is deterministic
// (most recently parked runner first), keeping simulations reproducible.
type ProcPool struct {
	k    *Kernel
	name string
	idle []*poolRunner
	n    int // runners ever spawned, for naming and stats
}

type poolRunner struct {
	ch *Chan[func(p *Proc)]
}

// NewProcPool returns an empty pool whose runners are named name.1,
// name.2, ...
func NewProcPool(k *Kernel, name string) *ProcPool {
	return &ProcPool{k: k, name: name}
}

// Go runs fn on a pooled process starting at the current virtual time. Like
// a process body, fn may Hold, block on channels and resources, and spawn
// further tasks (including on the same pool).
func (pp *ProcPool) Go(fn func(p *Proc)) {
	if n := len(pp.idle); n > 0 {
		r := pp.idle[n-1]
		pp.idle = pp.idle[:n-1]
		r.ch.Send(fn)
		return
	}
	r := &poolRunner{ch: NewChan[func(p *Proc)](pp.k)}
	pp.n++
	pp.k.Spawn(fmt.Sprintf("%s.%d", pp.name, pp.n), func(p *Proc) {
		for {
			fn := r.ch.Recv(p)
			fn(p)
			pp.idle = append(pp.idle, r)
		}
	})
	r.ch.Send(fn)
}

// Spawned reports how many runner processes the pool has ever created —
// the peak number of simultaneously active tasks.
func (pp *ProcPool) Spawned() int { return pp.n }

// Idle reports how many runners are currently parked awaiting work.
func (pp *ProcPool) Idle() int { return len(pp.idle) }
