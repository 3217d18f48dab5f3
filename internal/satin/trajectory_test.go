package satin

import (
	"fmt"
	"testing"
	"time"

	"cashmere/internal/network"
	"cashmere/internal/simnet"
)

// commTrajectory is what TestCommTrajectory pins of one run: the virtual
// end time, the trajectory-determined scheduling counters and the runtime's
// message and steal counters.
type commTrajectory struct {
	End                     simnet.Time
	Events, Stale, Callback int64
	Messages                int64
	StealsOK, StealsFailed  int64
	ReExecuted, Migrated    int64
}

func (c commTrajectory) String() string {
	return fmt.Sprintf("{End: %d, Events: %d, Stale: %d, Callback: %d, Messages: %d, StealsOK: %d, StealsFailed: %d, ReExecuted: %d, Migrated: %d}",
		c.End, c.Events, c.Stale, c.Callback, c.Messages, c.StealsOK, c.StealsFailed, c.ReExecuted, c.Migrated)
}

// spreadBulk is divideAndCompute with a job input large enough to travel
// the bulk lane, so every granted steal moves its data over the links.
func spreadBulk(ctx *Context, leaves int, work simnet.Duration) int {
	if leaves == 1 {
		ctx.Compute(work, "leaf")
		return 1
	}
	l, r := leaves/2, leaves-leaves/2
	desc := JobDesc{Name: "bulk", InputBytes: 256 << 10, ResultBytes: 64}
	a := ctx.Spawn(desc, func(c *Context) any { return spreadBulk(c, l, work) })
	b := ctx.Spawn(desc, func(c *Context) any { return spreadBulk(c, r, work) })
	ctx.Sync()
	return a.Value().(int) + b.Value().(int)
}

// TestCommTrajectory pins the trajectory of every comm-loop protocol path
// — failed and granted steals, probes lost to a cut link, drain/undrain,
// message-driven crashes, shared-object updates and the SetMessageHandler
// hook — on a 4-node cluster, and a non-master comm loop left idle for
// hundreds of milliseconds on a 2-node one, at 1 and 2 partitions. The
// expected values were recorded while the comm loop and the thieves were
// still blocking coroutines; any change to the order or timing of their
// sends and receives moves them. The Stale column was re-recorded when the
// non-master comm loops stopped receiving with a timeout: each wake of such
// a loop no longer folds a pending timeout. End, Events and Stale were
// re-recorded when the master's loop stopped receiving with its 250 ms
// timeout too: the run's clock now stops at the last idle worker's wake
// after main returns, not at the master's last timeout, which is one event
// fewer per run (two in idle-comm-loop), and the master's wakes fold no
// pending timeout. Nothing else moved. The bulk-steals and crash-async
// rows were re-recorded again when an idle worker's steal round started
// ending with its node: a remote worker mid-round at shutdown no longer
// probes peers whose loops have ended, so those runs lose the probes after
// main returned (their failed steals, messages and events) and the clock
// stops sooner. Every other row stayed.
func TestCommTrajectory(t *testing.T) {
	type row struct {
		name  string
		nodes int // 4 when 0
		cfg   func(*Config)
		setup func(rt *Runtime)
		main  func(rt *Runtime, ctx *Context) any
		check func(rt *Runtime, v any) error
		want  commTrajectory
	}
	wantInt := func(n int) func(*Runtime, any) error {
		return func(_ *Runtime, v any) error {
			if v.(int) != n {
				return fmt.Errorf("result %v, want %d", v, n)
			}
			return nil
		}
	}
	pongs := 0
	rows := []row{{
		name: "failed-steals",
		main: func(_ *Runtime, ctx *Context) any {
			ctx.Compute(3*time.Millisecond, "busy")
			return nil
		},
		want: commTrajectory{End: 4523080, Events: 1373, Stale: 196, Callback: 395, Messages: 395, StealsOK: 0, StealsFailed: 196, ReExecuted: 0, Migrated: 0},
	}, {
		// Probes across the cut link are lost at the sender, or on delivery
		// while in flight, and their thieves wait out StealTimeout.
		name: "link-down",
		setup: func(rt *Runtime) {
			rt.k.Spawn("cutter", func(p *simnet.Proc) {
				rt.Fabric().SetLinkAt(p.Kernel(), 1, 2, simnet.Time(500*time.Microsecond), false)
				rt.Fabric().SetLinkAt(p.Kernel(), 1, 2, simnet.Time(2*time.Millisecond), true)
			})
		},
		main: func(_ *Runtime, ctx *Context) any {
			ctx.Compute(3*time.Millisecond, "busy")
			return nil
		},
		check: func(rt *Runtime, _ any) error {
			if d := rt.Fabric().MessagesDropped(); d != 4 {
				return fmt.Errorf("%d messages dropped, want 4", d)
			}
			return nil
		},
		want: commTrajectory{End: 4511100, Events: 1142, Stale: 160, Callback: 327, Messages: 323, StealsOK: 0, StealsFailed: 164, ReExecuted: 0, Migrated: 0},
	}, {
		name: "bulk-steals",
		main: func(_ *Runtime, ctx *Context) any {
			return spreadBulk(ctx, 32, 300*time.Microsecond)
		},
		check: wantInt(32),
		want:  commTrajectory{End: 4161520, Events: 1199, Stale: 151, Callback: 299, Messages: 299, StealsOK: 16, StealsFailed: 117, ReExecuted: 0, Migrated: 0},
	}, {
		name: "drain-undrain",
		cfg: func(c *Config) {
			c.WorkersPerNode = 1
			c.StealTimeout = 100 * time.Nanosecond
		},
		setup: func(rt *Runtime) {
			rt.k.SpawnAt(simnet.Time(4*time.Millisecond), "drainer", func(p *simnet.Proc) {
				rt.DrainAsync(p, 3)
			})
			rt.k.SpawnAt(simnet.Time(6*time.Millisecond), "undrainer", func(p *simnet.Proc) {
				rt.UndrainAsync(p, 3)
			})
		},
		main: func(_ *Runtime, ctx *Context) any {
			return divideAndCompute(ctx, 64, 500*time.Microsecond)
		},
		check: wantInt(64),
		// Re-recorded when popSteal stopped handing out jobs owned by
		// another node: a straggler now stays on the node its late grant
		// reached instead of being stolen on, so when node 3 drains it holds
		// 1 foreign job to ship home, not 3.
		//
		// Re-recorded again when Sync began searching through seekLocal, so
		// a frame blocked in Sync on a draining node no longer steals. Node 3
		// pulls no work in between the drain at 4 ms and the undrain at 6 ms
		// and runs 24 jobs instead of 29; main returns at 9.91 ms instead of
		// 8.54 ms, and the idle workers of the longer run fail 232 probes
		// instead of 160 (every grant is late at this timeout, so none
		// succeeds). Migrated stays 1.
		//
		// Re-recorded when steal replies began naming their probe: 5 late
		// denials reach a worker while a later probe of its waits, and now
		// end no probe, so that probe waits out its own timeout (Events
		// 2122 -> 2125, Stale 503 -> 502); nothing else moves.
		want: commTrajectory{End: 9952440, Events: 2124, Stale: 11, Callback: 548, Messages: 548, StealsOK: 0, StealsFailed: 232, ReExecuted: 0, Migrated: 1},
	}, {
		name: "crash-async",
		setup: func(rt *Runtime) {
			rt.k.SpawnAt(simnet.Time(time.Millisecond), "crasher", func(p *simnet.Proc) {
				rt.CrashAsync(p, 3)
			})
		},
		main: func(_ *Runtime, ctx *Context) any {
			return divideAndCompute(ctx, 128, 500*time.Microsecond)
		},
		check: wantInt(128),
		want:  commTrajectory{End: 15514320, Events: 1595, Stale: 160, Callback: 322, Messages: 322, StealsOK: 17, StealsFailed: 125, ReExecuted: 2, Migrated: 0},
	}, {
		name: "shared-update",
		setup: func(rt *Runtime) {
			rt.NewShared("sum",
				func(int) any { return new(int) },
				func(_ int, replica, args any) { *replica.(*int) += args.(int) })
		},
		main: func(rt *Runtime, ctx *Context) any {
			for i := 1; i <= 3; i++ {
				rt.shared[0].Invoke(ctx, 8<<10, i)
				ctx.Compute(500*time.Microsecond, "iter")
			}
			ctx.Compute(2*time.Millisecond, "settle")
			return nil
		},
		check: func(rt *Runtime, _ any) error {
			for i := range rt.nodes {
				if got := *rt.shared[0].Local(i).(*int); got != 6 {
					return fmt.Errorf("replica %d = %d, want 6", i, got)
				}
			}
			return nil
		},
		want: commTrajectory{End: 4523080, Events: 1432, Stale: 196, Callback: 404, Messages: 404, StealsOK: 0, StealsFailed: 196, ReExecuted: 0, Migrated: 0},
	}, {
		name: "message-handler",
		setup: func(rt *Runtime) {
			pongs = 0
			rt.SetMessageHandler(func(ctx *Context, m network.Message) bool {
				switch m.Kind {
				case "ping":
					ctx.Node().GoLocal(func(c *Context) {
						c.Compute(100*time.Microsecond, "pong")
						c.Node().ep.Send(c.Proc(), int(m.From), "pong", 64, nil)
					})
					return true
				case "pong":
					pongs++ // only node 0 receives pongs
					return true
				}
				return false
			})
		},
		main: func(rt *Runtime, ctx *Context) any {
			for i := 1; i < len(rt.nodes); i++ {
				rt.nodes[0].ep.Send(ctx.Proc(), i, "ping", 64, nil)
			}
			ctx.Compute(time.Millisecond, "wait")
			return nil
		},
		check: func(*Runtime, any) error {
			if pongs != 3 {
				return fmt.Errorf("%d pongs, want 3", pongs)
			}
			return nil
		},
		want: commTrajectory{End: 1446760, Events: 1000, Stale: 140, Callback: 289, Messages: 289, StealsOK: 0, StealsFailed: 140, ReExecuted: 0, Migrated: 0},
	}, {
		// Node 1's thief backs off to 400 ms between rounds, so its comm
		// loop gets no message from its round at 300 ms until the shutdown
		// at 600 ms, and the run ends at its next round, near 700 ms.
		name:  "idle-comm-loop",
		nodes: 2,
		cfg: func(c *Config) {
			c.WorkersPerNode = 1
			c.StealBackoff = 100 * time.Millisecond
			c.MaxIdleBackoff = 400 * time.Millisecond
		},
		main: func(_ *Runtime, ctx *Context) any {
			ctx.Compute(600*time.Millisecond, "busy")
			return nil
		},
		// Recorded while node 1's loop still received with the 250 ms
		// timeout: it fired once, at 550 ms, and only queued the next one
		// (Events 98, Stale 37). Without it nothing else moved. While the
		// master's loop still had it, it ended the run at 800.28 ms
		// (Events 97, Stale 24).
		want: commTrajectory{End: 700288480, Events: 95, Stale: 12, Callback: 25, Messages: 25, StealsOK: 0, StealsFailed: 12, ReExecuted: 0, Migrated: 0},
	}}
	for _, r := range rows {
		for _, parts := range []int{1, 2} {
			nodes := r.nodes
			if nodes == 0 {
				nodes = 4
			}
			ps := simnet.NewPartitioned(5, nodes, parts)
			cfg := DefaultConfig()
			cfg.WorkersPerNode = 2
			if r.cfg != nil {
				r.cfg(&cfg)
			}
			rt := NewPartitioned(ps, nodes, network.QDRInfiniBand(), cfg, nil)
			if r.setup != nil {
				r.setup(rt)
			}
			v, _ := rt.Run(func(ctx *Context) any { return r.main(rt, ctx) })
			if r.check != nil {
				if err := r.check(rt, v); err != nil {
					t.Errorf("%s/parts=%d: %v", r.name, parts, err)
				}
			}
			st := ps.AggregateKernelStats()
			got := commTrajectory{
				End: ps.Now(), Events: st.Events, Stale: st.Stale, Callback: st.Callbacks,
				Messages: rt.Fabric().MessagesSent(),
				StealsOK: rt.StealsOK(), StealsFailed: rt.StealsFailed(),
				ReExecuted: rt.JobsReExecuted(), Migrated: rt.JobsMigrated(),
			}
			if got != r.want {
				t.Errorf("%s/parts=%d:\n got %v\nwant %v", r.name, parts, got, r.want)
			}
		}
	}
}
