package tune

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
)

func entry(kernel, dev, level string, local []int64) *Entry {
	return &Entry{
		Kernel: kernel, Device: dev, Level: level, Local: local,
		KernelNs: 100, ServiceNs: 120, BaselineNs: 150,
		Evaluated: 10, Pruned: 7,
	}
}

func TestCacheEncodeByteStable(t *testing.T) {
	// The same entries must serialize identically regardless of insertion
	// order — the determinism CI job byte-diffs cache dumps across
	// partition counts.
	a := NewCache()
	a.Put("matmul@gtx480#01", entry("matmul", "gtx480", "gpu", nil))
	a.Put("kmeans@hd7970#02", entry("kmeans", "hd7970", "gpu", []int64{64}))
	a.Put("nbody@xeon_phi#03", entry("nbody", "xeon_phi", "perfect", []int64{16}))

	b := NewCache()
	b.Put("nbody@xeon_phi#03", entry("nbody", "xeon_phi", "perfect", []int64{16}))
	b.Put("matmul@gtx480#01", entry("matmul", "gtx480", "gpu", nil))
	b.Put("kmeans@hd7970#02", entry("kmeans", "hd7970", "gpu", []int64{64}))

	ba, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatalf("encodings differ:\n%s\n---\n%s", ba, bb)
	}
	if !strings.Contains(string(ba), CacheVersion) {
		t.Fatal("version tag missing")
	}
	if ba[len(ba)-1] != '\n' {
		t.Fatal("no trailing newline")
	}
}

func TestCacheGolden(t *testing.T) {
	c := NewCache()
	c.Put("matmul@gtx480#0000000000000001", entry("matmul", "gtx480", "gpu", []int64{8, 8}))
	got, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{
  "version": "cashmere-tune/1",
  "entries": {
    "matmul@gtx480#0000000000000001": {
      "kernel": "matmul",
      "device": "gtx480",
      "level": "gpu",
      "local": [
        8,
        8
      ],
      "kernel_ns": 100,
      "service_ns": 120,
      "baseline_ns": 150,
      "evaluated": 10,
      "pruned": 7
    }
  }
}
`
	if string(got) != want {
		t.Fatalf("golden mismatch:\n%s", got)
	}
}

func TestCacheSaveLoadRoundtrip(t *testing.T) {
	c := NewCache()
	c.Put("k1", entry("matmul", "gtx480", "gpu", nil))
	c.Put("k2", entry("kmeans", "hd7970", "gpu", []int64{1, 64}))
	path := filepath.Join(t.TempDir(), "tune.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	e1, _ := got.Encode()
	e2, _ := c.Encode()
	if !bytes.Equal(e1, e2) {
		t.Fatal("roundtrip changed the cache")
	}
	if len(got.entries) != 2 {
		t.Fatalf("Len = %d", len(got.entries))
	}
}

func TestCacheLoadMissingFile(t *testing.T) {
	c, err := Load(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.entries) != 0 {
		t.Fatal("missing file did not yield an empty cache")
	}
}

// TestCacheDecodeRejectsBadEntries: an entry that cannot be compiled fails
// at load time, not as a nil dereference when a cluster starts up.
func TestCacheDecodeRejectsBadEntries(t *testing.T) {
	for name, in := range map[string]string{
		"null entry":      `{"version":"cashmere-tune/1","entries":{"k":null}}`,
		"zero extent":     `{"version":"cashmere-tune/1","entries":{"k":{"level":"gpu","local":[0]}}}`,
		"negative extent": `{"version":"cashmere-tune/1","entries":{"k":{"level":"gpu","local":[16,-4]}}}`,
	} {
		if c, err := DecodeCache([]byte(in)); err == nil {
			t.Errorf("%s: accepted, %d entries", name, len(c.entries))
		}
	}
}

func TestCacheDecodeRejectsVersionMismatch(t *testing.T) {
	if _, err := DecodeCache([]byte(`{"version":"other/9","entries":{}}`)); err == nil {
		t.Fatal("version mismatch accepted")
	}
	if _, err := DecodeCache([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestTuneOnceCounters(t *testing.T) {
	c := NewCache()
	req := request(t, "gtx480")
	e1, err := c.TuneOnce(req, hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, evals := c.Counters()
	if hits != 0 || misses != 1 || evals != int64(e1.Evaluated) {
		t.Fatalf("after first tune: hits=%d misses=%d evals=%d", hits, misses, evals)
	}
	e2, err := c.TuneOnce(req, hdl.Library())
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, evals = c.Counters()
	if hits != 1 || misses != 1 || evals != int64(e1.Evaluated) {
		t.Fatalf("after cached tune: hits=%d misses=%d evals=%d", hits, misses, evals)
	}
	if e1.Level != e2.Level || e1.ServiceNs != e2.ServiceNs {
		t.Fatal("cached entry differs from the tuned one")
	}
}

func TestKeyChangesWithSourceAndDevice(t *testing.T) {
	ks := matmulSet(t)
	gtx, _ := device.Lookup("gtx480")
	amd, _ := device.Lookup("hd7970")
	k1 := Key(ks, gtx)
	if k2 := Key(ks, amd); k1 == k2 {
		t.Fatal("different devices share a key")
	}
	// A source edit must change the fingerprint half.
	edited := strings.Replace(matmulPerfect, "float sum = 0.0;", "float sum = 0.0; sum += 0.0;", 1)
	ks2, err := codegen.NewKernelSet("matmul", edited, matmulGPU)
	if err != nil {
		t.Fatal(err)
	}
	if k3 := Key(ks2, gtx); k1 == k3 {
		t.Fatal("edited kernel source shares a key")
	}
	if !strings.HasPrefix(k1, "matmul@gtx480#") {
		t.Fatalf("key %q has unexpected shape", k1)
	}
}
