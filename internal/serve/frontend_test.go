package serve

import (
	"testing"
	"time"

	"cashmere/internal/simnet"
)

// feConfig builds a frontend-only config (no DES) with the given tenants.
func feConfig(tenants ...TenantSpec) Config {
	return Config{Tenants: tenants, Horizon: time.Second, MaxBatch: 4, SLO: 50 * time.Millisecond}
}

func classFixed(name string, cost simnet.Duration, batchParam string) JobClass {
	return JobClass{
		Name: name, Kernel: "k", BatchParam: batchParam,
		Params: map[string]int64{"n": 64}, InBytes: 1024, OutBytes: 256,
		CostHint: cost, Weight: 1,
	}
}

func TestTokenBucketThrottleAndRefill(t *testing.T) {
	f := NewFrontend(nil, feConfig(TenantSpec{
		Name: "a", Weight: 1, BucketRatePerSec: 1000, BucketBurst: 2,
		Mix: []JobClass{classFixed("c", time.Millisecond, "n")},
	}), nil)

	// Burst of 2 admitted, third shed with a retry hint ~1ms (1 token at
	// 1000/s).
	if _, v, _ := f.Admit(0, 0, 0); v != Admitted {
		t.Fatal("first arrival must be admitted")
	}
	if _, v, _ := f.Admit(0, 0, 0); v != Admitted {
		t.Fatal("second arrival must be admitted (burst 2)")
	}
	_, v, retry := f.Admit(0, 0, 0)
	if v != ShedThrottle {
		t.Fatalf("verdict = %v, want ShedThrottle", v)
	}
	if retry <= 0 || retry > 2*time.Millisecond {
		t.Fatalf("retry hint = %v, want ~1ms", retry)
	}
	// After the hint the bucket has refilled one token.
	if _, v, _ := f.Admit(simnet.Time(retry), 0, 0); v != Admitted {
		t.Fatal("arrival after refill must be admitted")
	}
	st := &f.tenants[0]
	if st.Offered != 4 || st.Admitted != 3 || st.ShedThrottle != 1 {
		t.Fatalf("counters offered/admitted/shed = %d/%d/%d", st.Offered, st.Admitted, st.ShedThrottle)
	}
}

func TestBoundedQueueSheds(t *testing.T) {
	f := NewFrontend(nil, feConfig(TenantSpec{
		Name: "a", Weight: 1, QueueLimit: 3,
		Mix: []JobClass{classFixed("c", time.Millisecond, "n")},
	}), nil)
	for i := 0; i < 3; i++ {
		if _, v, _ := f.Admit(0, 0, 0); v != Admitted {
			t.Fatalf("arrival %d must be admitted", i)
		}
	}
	_, v, retry := f.Admit(0, 0, 0)
	if v != ShedQueue {
		t.Fatalf("verdict = %v, want ShedQueue", v)
	}
	if retry != queueRetryAfter {
		t.Fatalf("retry hint = %v, want %v", retry, queueRetryAfter)
	}
	if f.queued != 3 || f.maxDepth != 3 {
		t.Fatalf("queued/maxdepth = %d/%d", f.queued, f.maxDepth)
	}
}

func TestWFQSharesFollowWeights(t *testing.T) {
	// Two permanently backlogged tenants with weights 3:1 and equal-cost
	// requests must be served ~3:1.
	cost := time.Millisecond
	f := NewFrontend(nil, Config{
		Tenants: []TenantSpec{
			{Name: "hi", Weight: 3, QueueLimit: 4096, Mix: []JobClass{classFixed("c", cost, "")}},
			{Name: "lo", Weight: 1, QueueLimit: 4096, Mix: []JobClass{classFixed("c", cost, "")}},
		},
		Horizon: time.Second, MaxBatch: 1, SLO: time.Second,
	}, nil)
	for i := 0; i < 1000; i++ {
		f.Admit(0, 0, 0)
		f.Admit(0, 1, 0)
	}
	served := [2]int{}
	var buf []*Request
	for i := 0; i < 400; i++ {
		buf = f.NextBatch(0, buf[:0])
		if len(buf) != 1 {
			t.Fatalf("batch size %d with MaxBatch 1", len(buf))
		}
		served[buf[0].Tenant]++
		f.Complete(0, buf[0], true)
	}
	if served[0] != 300 || served[1] != 100 {
		t.Fatalf("served hi/lo = %d/%d, want exactly 300/100 under 3:1 WFQ", served[0], served[1])
	}
}

func TestBatchingCoalescesSameClassOnly(t *testing.T) {
	a := classFixed("a", time.Millisecond, "n")
	b := classFixed("b", time.Millisecond, "n")
	f := NewFrontend(nil, Config{
		Tenants: []TenantSpec{{Name: "t", Weight: 1, QueueLimit: 64, Mix: []JobClass{a, b}}},
		Horizon: time.Second, MaxBatch: 3, SLO: time.Second,
	}, nil)
	// Queue: a a a a b a  → batches: [a a a] [a] [b] [a]
	for _, c := range []int{0, 0, 0, 0, 1, 0} {
		if _, v, _ := f.Admit(0, 0, c); v != Admitted {
			t.Fatal("admit failed")
		}
	}
	var sizes []int
	var buf []*Request
	for {
		buf = f.NextBatch(0, buf[:0])
		if len(buf) == 0 {
			break
		}
		sizes = append(sizes, len(buf))
		for _, r := range buf {
			f.Complete(0, r, true)
		}
	}
	want := []int{3, 1, 1, 1}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
	}
	if f.Batches != 4 || f.BatchedReqs != 3 {
		t.Fatalf("Batches/BatchedReqs = %d/%d", f.Batches, f.BatchedReqs)
	}
}

func TestUnbatchableClassNeverCoalesces(t *testing.T) {
	c := classFixed("c", time.Millisecond, "") // no BatchParam
	f := NewFrontend(nil, Config{
		Tenants: []TenantSpec{{Name: "t", Weight: 1, QueueLimit: 64, Mix: []JobClass{c}}},
		Horizon: time.Second, MaxBatch: 8, SLO: time.Second,
	}, nil)
	for i := 0; i < 5; i++ {
		f.Admit(0, 0, 0)
	}
	buf := f.NextBatch(0, nil)
	if len(buf) != 1 {
		t.Fatalf("batch of %d for a class without BatchParam, want 1", len(buf))
	}
}

func TestRequestPoolRecycles(t *testing.T) {
	f := NewFrontend(nil, feConfig(TenantSpec{
		Name: "a", Weight: 1, QueueLimit: 64,
		Mix: []JobClass{classFixed("c", time.Millisecond, "n")},
	}), nil)
	r1, _, _ := f.Admit(0, 0, 0)
	buf := f.NextBatch(0, nil)
	f.Complete(0, buf[0], true)
	r2, _, _ := f.Admit(1, 0, 0)
	if r1 != r2 {
		t.Fatal("completed request record was not recycled")
	}
	if r2.Arrive != 1 {
		t.Fatal("recycled record not reset")
	}
}

// TestConservation checks the accounting identity on the pure frontend:
// offered = admitted + sheds, and after draining, admitted = completed.
func TestConservation(t *testing.T) {
	f := NewFrontend(nil, feConfig(TenantSpec{
		Name: "a", Weight: 1, QueueLimit: 8, BucketRatePerSec: 1e6, BucketBurst: 4,
		Mix: []JobClass{classFixed("c", time.Millisecond, "n")},
	}), nil)
	now := simnet.Time(0)
	var buf []*Request
	for i := 0; i < 10000; i++ {
		f.Admit(now, 0, 0)
		if i%3 == 2 {
			for {
				buf = f.NextBatch(now, buf[:0])
				if len(buf) == 0 {
					break
				}
				for _, r := range buf {
					f.Complete(now, r, true)
				}
			}
		}
		now += 50
	}
	for {
		buf = f.NextBatch(now, buf[:0])
		if len(buf) == 0 {
			break
		}
		for _, r := range buf {
			f.Complete(now, r, true)
		}
	}
	st := &f.tenants[0]
	if st.Offered != st.Admitted+st.ShedThrottle+st.ShedQueue {
		t.Fatalf("offered %d != admitted %d + sheds %d+%d",
			st.Offered, st.Admitted, st.ShedThrottle, st.ShedQueue)
	}
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d after drain", st.Admitted, st.Completed)
	}
	if f.queued != 0 || f.inflight != 0 {
		t.Fatalf("queued/inflight = %d/%d after drain", f.queued, f.inflight)
	}
}
