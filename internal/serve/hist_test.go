package serve

import "testing"

func TestHistBucketsMonotone(t *testing.T) {
	last := -1
	for _, v := range []int64{0, 1, 500, 1023, 1024, 1500, 2048, 4096, 1e6, 1e9, 1e12, 1e15} {
		b := bucketOf(v)
		if b < last {
			t.Fatalf("bucketOf(%d) = %d, below previous %d", v, b, last)
		}
		if b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, b)
		}
		last = b
	}
	// Bucket upper bounds must bound the values that land in them within
	// the advertised 1/histSub relative error.
	for v := int64(histBase); v < int64(1e12); v = v*5/4 + 3 {
		ub := bucketUpper(bucketOf(v))
		if ub < v*7/8 {
			t.Fatalf("bucketUpper(bucketOf(%d)) = %d, more than 12.5%% under", v, ub)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zero")
	}
	// 1000 samples at 1ms, 10 at 100ms: p50 ~1ms, p99.5+ sees the tail.
	for i := 0; i < 1000; i++ {
		h.Observe(1e6)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100e6)
	}
	if p50 := h.Quantile(0.50); p50 < 9e5 || p50 > 1.2e6 {
		t.Fatalf("p50 = %d, want ~1e6", p50)
	}
	if p999 := h.Quantile(0.999); p999 < 80e6 {
		t.Fatalf("p99.9 = %d, want ~100e6", p999)
	}
	if h.Quantile(1) != h.Max() || h.Max() != 100e6 {
		t.Fatalf("p100 = %d, max = %d, want exact max 100e6", h.Quantile(1), h.Max())
	}
	if m := h.Mean(); m != int64(1000*1e6+10*100e6)/1010 {
		t.Fatalf("mean = %d", m)
	}
}
