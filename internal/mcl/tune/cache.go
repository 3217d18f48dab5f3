package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"cashmere/internal/device"
	"cashmere/internal/mcl/codegen"
	"cashmere/internal/mcl/hdl"
)

// CacheVersion tags the serialized cache format.
const CacheVersion = "cashmere-tune/1"

// Cache is the persistent tuning cache: winning configurations keyed by
// kernel x device x fingerprint. It is consulted once per (kernel, device)
// at cluster initialization — never on the launch hot path, which reads the
// pre-compiled tuned form — and is safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*Entry

	hits, misses, evals int64
}

// NewCache returns an empty tuning cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*Entry{}}
}

// Key derives the cache key of a (kernel set, device) pair. It folds in the
// kernel set's source fingerprint and the device spec, so editing any kernel
// version or retuning against a different device model misses cleanly
// instead of replaying a stale winner.
func Key(ks *codegen.KernelSet, spec *device.Spec) string {
	fp := ks.Fingerprint()
	h := uint64(14695981039346656037)
	s := fmt.Sprintf("%+v", *spec)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return fmt.Sprintf("%s@%s#%016x", ks.Name, spec.Name, fp^h)
}

// Lookup returns the cached entry for a key, counting a hit or miss.
func (c *Cache) Lookup(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Put stores an entry under a key.
func (c *Cache) Put(key string, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = e
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Counters reports the cache's hit, miss and model-evaluation counts (the
// tune.* metrics of core.CollectMetrics).
func (c *Cache) Counters() (hits, misses, evals int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evals
}

// TuneOnce returns the cached winner for the request, running the full
// search only on a miss. The search's model-evaluation count accumulates in
// the evals counter.
func (c *Cache) TuneOnce(req Request, h *hdl.Hierarchy) (*Entry, error) {
	key := Key(req.Set, req.Device)
	if e, ok := c.Lookup(key); ok {
		return e, nil
	}
	res, err := Tune(req, h)
	if err != nil {
		return nil, err
	}
	e := res.Entry
	c.mu.Lock()
	c.evals += int64(e.Evaluated)
	c.mu.Unlock()
	c.Put(key, &e)
	return &e, nil
}

// cacheFile is the on-disk shape. encoding/json emits map keys in sorted
// order and every Entry field is integral or textual, so Encode is
// byte-stable: the same entries always serialize to the same bytes,
// regardless of insertion order, partition count or host.
type cacheFile struct {
	Version string            `json:"version"`
	Entries map[string]*Entry `json:"entries"`
}

// Encode serializes the cache (sorted keys, stable bytes).
func (c *Cache) Encode() ([]byte, error) {
	c.mu.Lock()
	f := cacheFile{Version: CacheVersion, Entries: c.entries}
	buf, err := json.MarshalIndent(f, "", "  ")
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// DecodeCache parses a serialized cache. Counters start at zero. A null
// entry or a non-positive work-group extent is rejected here, so every entry
// Lookup returns can be compiled.
func DecodeCache(data []byte) (*Cache, error) {
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("tune: bad cache: %w", err)
	}
	if f.Version != CacheVersion {
		return nil, fmt.Errorf("tune: cache version %q, want %q", f.Version, CacheVersion)
	}
	c := NewCache()
	for k, e := range f.Entries {
		if e == nil {
			return nil, fmt.Errorf("tune: cache entry %q is null", k)
		}
		for _, l := range e.Local {
			if l < 1 {
				return nil, fmt.Errorf("tune: cache entry %q has work-group extent %d, want >= 1", k, l)
			}
		}
		c.entries[k] = e
	}
	return c, nil
}

// Save writes the cache to a file.
func (c *Cache) Save(path string) error {
	buf, err := c.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// Load reads a cache file. A missing file yields an empty cache (first run
// of a workflow that saves on exit).
func Load(path string) (*Cache, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return NewCache(), nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeCache(data)
}
