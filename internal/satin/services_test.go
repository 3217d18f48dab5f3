package satin

import (
	"testing"
	"time"
)

// TestRunServicesPlacesWorkWithoutThieves: under RunServices many-core
// spawns and GoOn placements run as under Run, but no node probes a victim,
// so the only message on the fabric is the shutdown broadcast.
func TestRunServicesPlacesWorkWithoutThieves(t *testing.T) {
	const nodes = 4
	rt := testRuntime(nodes, 1)
	placed := 0
	v, _ := rt.RunServices(func(ctx *Context) any {
		for i := 1; i < nodes; i++ {
			rt.GoOn(i, func(c *Context) {
				c.Compute(time.Millisecond, "placed")
				placed++
			})
		}
		ctx.EnableManyCore()
		return fib(ctx, 10, 20*time.Microsecond)
	})
	if v.(int) != 55 {
		t.Fatalf("fib(10) = %v, want 55", v)
	}
	if placed != nodes-1 {
		t.Fatalf("%d GoOn placements ran, want %d", placed, nodes-1)
	}
	if rt.JobsSpawned() == 0 {
		t.Fatal("no many-core spawns; the test proves nothing")
	}
	if got := rt.StealsOK() + rt.StealsFailed(); got != 0 {
		t.Fatalf("%d steal probes under RunServices, want 0", got)
	}
	if got := rt.Fabric().MessagesSent(); got != nodes-1 {
		t.Fatalf("%d messages sent, want %d (the shutdown broadcast)", got, nodes-1)
	}
}

// TestRunServicesRejectsStealableSpawn: a normal-mode Spawn under
// RunServices would queue a job no worker ever runs, so it panics with a
// message pointing at EnableManyCore and GoOn.
func TestRunServicesRejectsStealableSpawn(t *testing.T) {
	rt := testRuntime(2, 1)
	defer func() {
		if r := recover(); r != msgServicesSpawn {
			t.Fatalf("panic = %v, want %q", r, msgServicesSpawn)
		}
	}()
	rt.RunServices(func(ctx *Context) any {
		ctx.Spawn(JobDesc{Name: "stealable"}, func(*Context) any { return nil })
		return nil
	})
	t.Fatal("stealable Spawn under RunServices did not panic")
}
