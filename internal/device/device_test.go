package device

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestCatalogHasSevenManyCoreDevicesPlusCPU(t *testing.T) {
	c := Catalog()
	want := []string{"gtx480", "c2050", "k20", "gtx680", "titan", "hd7970", "xeon_phi", "cpu"}
	if len(c) != len(want) {
		t.Fatalf("catalog has %d entries, want %d", len(c), len(want))
	}
	for _, n := range want {
		s, ok := c[n]
		if !ok {
			t.Fatalf("catalog missing %q", n)
		}
		if s.Name != n || s.PeakSPFlops <= 0 || s.MemBandwidth <= 0 || s.GlobalMem <= 0 {
			t.Fatalf("malformed spec %+v", s)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("k20"); err != nil {
		t.Fatal(err)
	}
	// An unknown name is an error listing the catalog sorted, so the
	// message is the same on every run.
	const want = `device: unknown device "gtx9000" (catalog: [c2050 cpu gtx480 gtx680 hd7970 k20 titan xeon_phi])`
	for i := 0; i < 5; i++ {
		if _, err := Lookup("gtx9000"); err == nil || err.Error() != want {
			t.Fatalf("Lookup(%q) error = %v, want %q", "gtx9000", err, want)
		}
	}
}

func TestStaticSpeedTableMatchesPaper(t *testing.T) {
	// Sec. III-B: "the table states that a K20 GPU has speed 40 and a
	// GTX480 speed 20".
	c := Catalog()
	if c["k20"].StaticSpeed != 40 || c["gtx480"].StaticSpeed != 20 {
		t.Fatalf("static speeds k20=%d gtx480=%d, want 40/20",
			c["k20"].StaticSpeed, c["gtx480"].StaticSpeed)
	}
}

func TestKernelTimeComputeBound(t *testing.T) {
	s := Catalog()["gtx480"]
	cost := KernelCost{Flops: 1345e9, MemBytes: 1, ComputeEff: 1, BandwidthEff: 1}
	got := s.KernelTime(cost) - s.LaunchOverhead
	if math.Abs(got.Seconds()-1.0) > 1e-9 {
		t.Fatalf("compute-bound time = %v, want 1s", got)
	}
}

func TestKernelTimeBandwidthBound(t *testing.T) {
	s := Catalog()["gtx480"]
	cost := KernelCost{Flops: 1, MemBytes: 177.4e9, ComputeEff: 1, BandwidthEff: 1}
	got := s.KernelTime(cost) - s.LaunchOverhead
	if math.Abs(got.Seconds()-1.0) > 1e-9 {
		t.Fatalf("bandwidth-bound time = %v, want 1s", got)
	}
}

func TestEfficiencyFactorsScaleTime(t *testing.T) {
	s := Catalog()["k20"]
	base := KernelCost{Flops: 1e12, MemBytes: 1e6, ComputeEff: 1, BandwidthEff: 1}
	half := base
	half.ComputeEff = 0.5
	tb := (s.KernelTime(base) - s.LaunchOverhead).Seconds()
	th := (s.KernelTime(half) - s.LaunchOverhead).Seconds()
	if math.Abs(th/tb-2) > 1e-6 {
		t.Fatalf("halving compute efficiency changed time by %.3fx, want 2x", th/tb)
	}
}

func TestInvalidCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid cost did not panic")
		}
	}()
	Catalog()["k20"].KernelTime(KernelCost{Flops: 1, ComputeEff: 0, BandwidthEff: 1})
}

func TestGFLOPSNeverExceedsPeak(t *testing.T) {
	f := func(flops, bytes uint32, ce, be uint8) bool {
		s := Catalog()["titan"]
		cost := KernelCost{
			Flops:        float64(flops) * 1e6,
			MemBytes:     float64(bytes),
			ComputeEff:   float64(ce%100+1) / 100,
			BandwidthEff: float64(be%100+1) / 100,
		}
		return s.GFLOPS(cost) <= s.PeakSPFlops/1e9+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTimeLinearInSize(t *testing.T) {
	s := Catalog()["k20"]
	t1 := s.TransferTime(6_000_000_000) // exactly 1s of wire at 6 GB/s
	want := s.PCIeLatency + time.Second
	if t1 != want {
		t.Fatalf("TransferTime = %v, want %v", t1, want)
	}
	if s.TransferTime(0) != s.PCIeLatency {
		t.Fatalf("zero-byte transfer should cost only latency")
	}
}

func TestXeonPhiRoughlyFourTimesSlowerThanK20OnBandwidthBoundKernel(t *testing.T) {
	// Sec. V-C: "the Xeon Phi is about 4 times slower than the K20" for the
	// k-means kernel. K-means is bandwidth-bound; the Phi additionally
	// suffers poor per-thread efficiency, which MCL's analysis models with a
	// lower compute/bandwidth efficiency. Here we just check the hardware
	// ratio is in a plausible range so the scheduler test in core can rely
	// on it.
	c := Catalog()
	k20, phi := c["k20"], c["xeon_phi"]
	costK20 := KernelCost{Flops: 1e12, MemBytes: 4e11, ComputeEff: 0.7, BandwidthEff: 0.85}
	costPhi := KernelCost{Flops: 1e12, MemBytes: 4e11, ComputeEff: 0.35, BandwidthEff: 0.28}
	ratio := phi.KernelTime(costPhi).Seconds() / k20.KernelTime(costK20).Seconds()
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("phi/k20 time ratio = %.2f, want ~4", ratio)
	}
}

func TestDMAEngineCounts(t *testing.T) {
	c := Catalog()
	if c["gtx480"].DMAEngines != 1 {
		t.Fatal("consumer Fermi should have one copy engine")
	}
	for _, n := range []string{"k20", "c2050", "hd7970", "xeon_phi"} {
		if c[n].DMAEngines != 2 {
			t.Fatalf("%s should have dual copy engines", n)
		}
	}
}

func TestSpecString(t *testing.T) {
	s := Catalog()["gtx480"]
	if got := s.String(); got == "" || got[0:6] != "gtx480" {
		t.Fatalf("String = %q", got)
	}
}

func TestPageTransferTimeRoundTripLatency(t *testing.T) {
	s := Catalog()["k20"]
	page := int64(64 << 10)
	bulk := s.TransferTime(page)
	fault := s.PagedTransferTime(page, page)
	if fault != bulk+s.PCIeLatency {
		t.Fatalf("fault = %v, want bulk %v + one extra latency %v", fault, bulk, s.PCIeLatency)
	}
	// The latency share of a page fault must dominate a small page: that is
	// the under-billing the bulk model would commit.
	if fault < 2*s.PCIeLatency {
		t.Fatalf("fault %v cheaper than its own round trip %v", fault, 2*s.PCIeLatency)
	}
}

func TestPagedTransferTimeClosedForm(t *testing.T) {
	s := Catalog()["gtx480"]
	const page = int64(64 << 10)
	// 2.5 pages: two full pages plus a partial tail.
	n := 2*page + page/2
	var sum time.Duration
	for off := int64(0); off < n; off += page {
		p := page
		if n-off < p {
			p = n - off
		}
		sum += s.PagedTransferTime(p, p)
	}
	got := s.PagedTransferTime(n, page)
	// The closed form rounds the bandwidth term once, the sum once per page:
	// allow a nanosecond of rounding slack per page.
	if d := got - sum; d < -3*time.Nanosecond || d > 3*time.Nanosecond {
		t.Fatalf("PagedTransferTime = %v, per-page sum = %v", got, sum)
	}
	// One whole-buffer "page" degenerates to a single fault.
	if s.PagedTransferTime(n, n) != s.TransferTime(n)+s.PCIeLatency {
		t.Fatal("single-page transfer should equal one fault")
	}
	if s.PagedTransferTime(0, page) != 0 {
		t.Fatal("zero bytes should cost nothing")
	}
	// Paged movement must never under-bill the bulk path.
	if s.PagedTransferTime(n, page) <= s.TransferTime(n) {
		t.Fatal("paged transfer should cost more than one bulk transfer")
	}
}
