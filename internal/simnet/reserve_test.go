package simnet

import (
	"fmt"
	"slices"
	"testing"
)

// script is a step process that runs one action per wake: the first at its
// start, each arming the next wake. It ends at the first action that arms
// none.
func script(actions ...func(p *Proc)) func(*Proc) bool {
	i := 0
	return func(p *Proc) bool {
		if i == len(actions) {
			return false
		}
		actions[i](p)
		i++
		return p.parked
	}
}

// wakeOrder logs "name@time" for each wake a test notes.
type wakeOrder []string

func (w *wakeOrder) note(name string) func(p *Proc) {
	return func(p *Proc) { *w = append(*w, fmt.Sprintf("%s@%d", name, p.Now())) }
}

// TestArmAtFiresWhereReserved: a wake armed at 7 under a stamp reserved at
// 0 fires at 10 where a wake posted at 0 would have: after C's, posted
// before the reserve, and ahead of B's, whose stamp was drawn at 5,
// between the reserve and the arm. A wake posted fresh at 7 fires after
// both, so the tie is real.
func TestArmAtFiresWhereReserved(t *testing.T) {
	for _, c := range []struct {
		name string
		want []string
	}{
		{"reserved", []string{"C@10", "A@10", "B@10"}},
		{"posted-at-reserve", []string{"C@10", "A@10", "B@10"}},
		{"posted-fresh", []string{"C@10", "B@10", "A@10"}},
	} {
		k := NewKernel(1)
		var got wakeOrder
		ch := NewChan[int](k)
		var s Stamp
		k.SpawnStepOn(0, "C", script(func(p *Proc) { p.Arm(10) }, got.note("C")))
		var a []func(p *Proc)
		switch c.name {
		case "reserved":
			a = []func(p *Proc){
				func(p *Proc) { s = k.Reserve(); ch.Await(p, -1) },
				func(p *Proc) { ch.TryRecv(); p.ArmAt(10, s) },
			}
		case "posted-at-reserve":
			a = []func(p *Proc){func(p *Proc) { p.Arm(10) }}
		case "posted-fresh":
			a = []func(p *Proc){
				func(p *Proc) { ch.Await(p, -1) },
				func(p *Proc) { ch.TryRecv(); p.Arm(3) },
			}
		}
		k.SpawnStepOn(0, "A", script(append(a, got.note("A"))...))
		k.SpawnStepOn(0, "B", script(func(p *Proc) { p.Arm(5) }, func(p *Proc) { p.Arm(5) }, got.note("B")))
		k.SpawnStepOn(0, "D", script(func(p *Proc) { p.Arm(7) }, func(p *Proc) { ch.Send(1) }))
		k.Run(0)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: wakes %v, want %v", c.name, got, c.want)
		}
		if st := k.Stats(); st.Stale != 0 {
			t.Errorf("%s: %d stale wakes, want 0", c.name, st.Stale)
		}
	}
}

// TestAwaitAfterWakesNoSoonerThanAt: R reserves a stamp at 0 and awaits a
// channel no sooner than 10 under it. At 10, C's wake (stamped before the
// reserve) orders ahead of R's reserved place and B's (stamped at 5)
// after it. A value sent before 10 (at 7, after B drew its stamp), or
// already queued, wakes R at 10 in its reserved place; so does one sent at
// 10 by C, whose event orders ahead of that place. One sent at 10 by B, or
// at 12, comes after it and wakes R at once with a fresh stamp, as Await
// would.
func TestAwaitAfterWakesNoSoonerThanAt(t *testing.T) {
	for _, c := range []struct {
		name   string
		sendAt Duration // D's send, unless C or B sends
		by     string
		want   []string
	}{
		{"queued", 0, "D", []string{"C@10", "R@10", "B@10"}},
		{"sent-before", 7, "D", []string{"C@10", "R@10", "B@10"}},
		{"sent-at-ahead", 0, "C", []string{"C@10", "R@10", "B@10"}},
		{"sent-at-behind", 0, "B", []string{"C@10", "B@10", "R@10"}},
		{"sent-after", 12, "D", []string{"C@10", "B@10", "R@12"}},
	} {
		k := NewKernel(1)
		var got wakeOrder
		ch := NewChan[int](k)
		send := func(by string) func(p *Proc) {
			return func(p *Proc) {
				if c.by == by {
					ch.Send(1)
				}
			}
		}
		k.SpawnStepOn(0, "C", script(func(p *Proc) { p.Arm(10) }, func(p *Proc) { got.note("C")(p); send("C")(p) }))
		if c.by == "D" {
			k.SpawnStepOn(0, "D", script(func(p *Proc) {
				if c.sendAt == 0 {
					ch.Send(1)
					return
				}
				p.Arm(c.sendAt)
			}, send("D")))
		}
		k.SpawnStepOn(0, "R", script(
			func(p *Proc) { ch.AwaitAfter(p, 10, k.Reserve()) },
			func(p *Proc) {
				if _, ok := ch.TryRecv(); !ok {
					t.Errorf("%s: R woke at %d with nothing to receive", c.name, p.Now())
				}
				got.note("R")(p)
			}))
		k.SpawnStepOn(0, "B", script(func(p *Proc) { p.Arm(5) }, func(p *Proc) { p.Arm(5) }, func(p *Proc) { got.note("B")(p); send("B")(p) }))
		k.Run(0)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: wakes %v, want %v", c.name, got, c.want)
		}
	}
}

// TestReservedWakeFoldsAndStales: a wake under a reserved stamp obeys
// postOn's rules. R waits on a timeout channel with a deadline and on ch
// no sooner than 10; D sends on ch at 3, which asks for R's wake at 10.
// With the deadline at 20 that wake advances R's pending entry and the
// deadline's counts stale; with it at 5 the earlier deadline keeps the
// entry and the reserved wake counts stale; either way R has one entry in
// the queue. A waiter whose park already ended (the deadline at 2 woke R,
// which stayed among ch's waiters and finished) is woken by no send: the
// wake counts stale, as a post for a finished process does; so does a
// reserved wake posted for one directly.
func TestReservedWakeFoldsAndStales(t *testing.T) {
	for _, c := range []struct {
		deadline Time
		wake     string
		stale    int64
	}{
		{20, "R@10", 1},
		{5, "R@5", 1},
		{2, "R@2", 1},
	} {
		k := NewKernel(1)
		var got wakeOrder
		ch, timer := NewChan[int](k), NewChan[int](k)
		k.SpawnStepOn(0, "D", script(func(p *Proc) { p.Arm(3) }, func(p *Proc) { ch.Send(1) }))
		k.SpawnStepOn(0, "R", script(
			func(p *Proc) {
				timer.Await(p, c.deadline)
				ch.AwaitAfter(p, 10, k.Reserve())
			},
			func(p *Proc) { timer.Unwait(p); got.note("R")(p) }))
		k.Run(0)
		if st := k.Stats(); !slices.Equal(got, []string{c.wake}) || st.Stale != c.stale || st.MaxQueue > 2 {
			t.Errorf("deadline %d: wakes %v, %d stale, queue up to %d; want [%s], %d stale, at most 2 (R's and D's)",
				c.deadline, got, st.Stale, st.MaxQueue, c.wake, c.stale)
		}
	}
	k := NewKernel(1)
	var s Stamp
	r := k.SpawnStepOn(0, "R", script(func(p *Proc) { s = k.Reserve() }))
	k.Run(0)
	k.postKey(5, uint64(s), r, r.epoch)
	if st := k.Stats(); st.Stale != 1 || k.pq.len() != 0 {
		t.Errorf("a reserved wake for a finished process: %d stale, %d queued; want 1 and 0", st.Stale, k.pq.len())
	}
}
