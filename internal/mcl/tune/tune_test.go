package tune

import (
	"reflect"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
)

// matmulPerfect/matmulGPU mirror the two-version stepwise-refinement pair
// the paper's matmul study uses.
const matmulPerfect = `
perfect void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int i in n threads) {
    foreach (int j in m threads) {
      float sum = 0.0;
      for (int k = 0; k < p; k++) {
        sum += a[i,k] * b[k,j];
      }
      c[i,j] += sum;
    }
  }
}
`

const matmulGPU = `
gpu void matmul(int n, int m, int p,
    float[n,m] c, float[n,p] a, float[p,m] b) {
  foreach (int bi in n / 16 blocks) {
    foreach (int bj in m / 16 blocks) {
      local float[16,16] ta;
      local float[16,16] tb;
      foreach (int ti in 16 threads) {
        foreach (int tj in 16 threads) {
          float sum = 0.0;
          for (int t = 0; t < p / 16; t++) {
            ta[ti,tj] = a[bi * 16 + ti, t * 16 + tj];
            tb[ti,tj] = b[t * 16 + ti, bj * 16 + tj];
            barrier();
            for (int k = 0; k < 16; k++) {
              sum += ta[ti,k] * tb[k,tj];
            }
            barrier();
          }
          c[bi * 16 + ti, bj * 16 + tj] += sum;
        }
      }
    }
  }
}
`

var matmulParams = map[string]int64{"n": 512, "m": 512, "p": 512}

func matmulSet(t *testing.T) *codegen.KernelSet {
	t.Helper()
	ks, err := codegen.NewKernelSet("matmul", matmulPerfect, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

func request(t *testing.T, dev string) Request {
	t.Helper()
	spec, err := device.Lookup(dev)
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Set: matmulSet(t), Device: spec, Params: matmulParams,
		InBytes: 4 * 3 * 512 * 512, OutBytes: 4 * 512 * 512,
	}
}

func TestTuneNeverRegressesAgainstBaseline(t *testing.T) {
	for _, dev := range []string{"gtx480", "hd7970", "xeon_phi", "k20"} {
		res, err := Tune(request(t, dev), hdl.Library())
		if err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
		e := res.Entry
		if e.ServiceNs <= 0 || e.BaselineNs <= 0 {
			t.Fatalf("%s: unpriced entry %+v", dev, e)
		}
		// The hand-picked default always competes, so the winner can only
		// match or beat it.
		if e.ServiceNs > e.BaselineNs {
			t.Fatalf("%s: tuned %d ns slower than baseline %d ns", dev, e.ServiceNs, e.BaselineNs)
		}
		if e.Evaluated < 2 {
			t.Fatalf("%s: search too small: %+v", dev, e)
		}
		if e.Evaluated != len(res.Candidates) {
			t.Fatalf("%s: Evaluated %d != %d candidates", dev, e.Evaluated, len(res.Candidates))
		}
	}
}

// TestTuneWinnerRanksByModel: the winner is the first of the unpruned
// candidates and the default by (ModelNs, Level, Local), and both service
// times add the request's transfers to the modeled kernel time.
func TestTuneWinnerRanksByModel(t *testing.T) {
	for _, dev := range []string{"gtx480", "hd7970", "xeon_phi", "k20"} {
		req := request(t, dev)
		res, err := Tune(req, hdl.Library())
		if err != nil {
			t.Fatalf("%s: %v", dev, err)
		}
		defLevel, err := hdl.Library().MostSpecific(req.Set.Levels(), req.Device.Leaf)
		if err != nil {
			t.Fatal(err)
		}
		var best, def *Candidate
		for i := range res.Candidates {
			c := &res.Candidates[i]
			isDefault := c.Level == defLevel && c.Local == nil
			if isDefault {
				def = c
			}
			if (!c.Pruned || isDefault) && (best == nil || better(c, best)) {
				best = c
			}
		}
		e := res.Entry
		if e.Level != best.Level || !reflect.DeepEqual(e.Local, best.Local) || e.KernelNs != best.ModelNs {
			t.Fatalf("%s: winner %s %v %d ns, want %s %v %d ns", dev, e.Level, e.Local, e.KernelNs, best.Level, best.Local, best.ModelNs)
		}
		xfer := (req.Device.TransferTime(req.InBytes) + req.Device.TransferTime(req.OutBytes)).Nanoseconds()
		if e.ServiceNs != e.KernelNs+xfer || e.BaselineNs != def.ModelNs+xfer {
			t.Fatalf("%s: service %d / baseline %d ns, want %d / %d", dev, e.ServiceNs, e.BaselineNs, e.KernelNs+xfer, def.ModelNs+xfer)
		}
	}
}

func TestTuneDeterministic(t *testing.T) {
	a, err := Tune(request(t, "gtx480"), hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(request(t, "gtx480"), hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Entry, b.Entry) {
		t.Fatalf("entries differ:\n%+v\n%+v", a.Entry, b.Entry)
	}
	if !reflect.DeepEqual(a.Candidates, b.Candidates) {
		t.Fatal("candidate lists differ between identical runs")
	}
}

func TestTuneRespectsWorkgroupLimit(t *testing.T) {
	// hd7970 caps work-groups at 256 threads; no winner or candidate may
	// exceed it.
	res, err := Tune(request(t, "hd7970"), hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		wg := int64(1)
		for _, e := range c.Local {
			wg *= e
		}
		if len(c.Local) > 0 && wg > 256 {
			t.Fatalf("candidate %v exceeds the 256-thread limit", c.Local)
		}
	}
}

func TestTuneBadRequests(t *testing.T) {
	if _, err := Tune(Request{}, hdl.Library()); err == nil {
		t.Fatal("empty request accepted")
	}
	req := request(t, "gtx480")
	req.Params = nil
	if _, err := Tune(req, hdl.Library()); err == nil {
		t.Fatal("missing launch parameters accepted")
	}
}

func TestGeometriesWithinLimit(t *testing.T) {
	for _, g := range geometries(1, 64) {
		if len(g) == 0 {
			continue
		}
		if g[0] > 64 {
			t.Fatalf("1D geometry %v over limit 64", g)
		}
	}
	for _, g := range geometries(2, 256) {
		if len(g) == 0 {
			continue
		}
		if g[0]*g[1] > 256 {
			t.Fatalf("2D geometry %v over limit 256", g)
		}
	}
	// The translator default is always the first entry.
	if gs := geometries(2, 1024); gs[0] != nil {
		t.Fatal("default geometry not first")
	}
	// 3D+ nests keep only the default.
	if gs := geometries(3, 1024); len(gs) != 1 {
		t.Fatalf("3D menu = %v, want default only", gs)
	}
}
