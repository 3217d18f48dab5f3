package serve

import "math/bits"

// Hist is a log-bucketed latency histogram over virtual time, the SLO
// accounting structure of the serving layer. Buckets are geometric with
// histSub sub-buckets per octave starting at histBase nanoseconds, so the
// relative quantile error is bounded by 1/histSub (12.5%) across the whole
// range while Observe stays a pair of integer operations and never
// allocates — it is on the request-completion path.
//
// Histograms are mergeable (bucket-wise addition), which is what lets the
// per-tenant histograms roll up into the cluster-wide one and what a
// sharded frontend would need to aggregate per-shard tails. Quantiles are
// computed from integer bucket counts and report the bucket's upper bound,
// so a dump is byte-identical across runs with the same trajectory.
type Hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

const (
	histBaseBits = 10
	histBase     = 1 << histBaseBits // ~1µs in ns; everything below lands in bucket 0
	histSubBits  = 3
	histSub      = 1 << histSubBits // sub-buckets per octave
	histOctaves  = 44               // covers histBase .. ~18e15 ns (~200 days)
	histBuckets  = 1 + histSub*histOctaves
)

// bucketOf maps a latency in nanoseconds to its bucket index: the octave is
// the position of the leading bit relative to histBase, the sub-bucket the
// next histSubBits bits below it.
func bucketOf(v int64) int {
	if v < histBase {
		return 0
	}
	u := uint64(v)
	top := uint(bits.Len64(u)) - 1 // v in [2^top, 2^(top+1))
	oct := int(top) - histBaseBits
	sub := int(u>>(top-histSubBits)) - histSub
	idx := 1 + oct*histSub + sub
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketUpper is the inclusive upper bound (ns) of bucket idx.
func bucketUpper(idx int) int64 {
	if idx <= 0 {
		return histBase - 1
	}
	oct := (idx - 1) / histSub
	sub := (idx - 1) % histSub
	top := uint(oct + histBaseBits)
	return int64(uint64(histSub+sub+1)<<(top-histSubBits)) - 1
}

// Observe records one latency sample (ns).
func (h *Hist) Observe(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Mean reports the exact mean latency in nanoseconds (0 when empty).
func (h *Hist) Mean() int64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / h.n
}

// Max reports the exact maximum observed latency in nanoseconds.
func (h *Hist) Max() int64 { return h.max }

// Quantile reports the latency (ns) below which a fraction q of the samples
// fall, as the upper bound of the containing bucket (0 when empty). The
// exact maximum is returned for the last occupied bucket, so p100 (and any
// quantile landing there) never over-reports.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q*float64(h.n) + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= target {
			if cum == h.n {
				return h.max
			}
			return bucketUpper(i)
		}
	}
	return h.max
}

// Snapshot returns a value copy of the histogram, the anchor of a windowed
// reading (the autoscaler samples p99 over its control interval, not over
// the whole run, so it reacts to the current regime rather than history).
func (h *Hist) Snapshot() Hist { return *h }

// Delta returns the histogram of the samples recorded since prev was
// snapshotted from this histogram. The exact per-sample max is not
// recoverable from bucket differences, so the delta's max is the upper
// bound of its highest occupied bucket — which keeps Quantile answers
// monotone and deterministic.
func (h *Hist) Delta(prev *Hist) Hist {
	var d Hist
	for i := range h.counts {
		c := h.counts[i] - prev.counts[i]
		d.counts[i] = c
		if c > 0 {
			d.max = bucketUpper(i)
		}
	}
	d.n = h.n - prev.n
	d.sum = h.sum - prev.sum
	return d
}
