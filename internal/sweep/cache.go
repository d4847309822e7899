package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/backend"
	"repro/internal/isa"
)

// cacheVersion invalidates every cached point when the metrics schema or the
// key derivation changes. v2: input arrays are length-framed with
// fixed-width words, and the symbol count frames the input section — see
// cacheKey.
const cacheVersion = "sweep-v2"

// cacheKey derives the content hash of a sweep point: the encoded compiled
// program (covering the kernel source and the compiler), the generated input
// arrays, and every machine-configuration coordinate. Identical keys are
// guaranteed identical simulations, so a change to a kernel, the compiler,
// the workload generator or the configuration re-measures exactly the points
// it touches.
//
// Every variable-length field is framed by its length so the encoding is
// injective: symbol names via put, each input array by its element count
// with fixed-width (16-hex-digit) words, and the input section by its symbol
// count. The v1 encoding wrote arrays as bare variable-width words with no
// length frame, leaving empty arrays contributing nothing and word
// boundaries resting on the "%x," formatting alone; TestCacheKeyFraming pins
// the near-miss input pairs that must hash apart.
func cacheKey(prog *isa.Program, in backend.Inputs, p Point) string {
	h := sha256.New()
	put := func(s string) {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	put(cacheVersion)
	put(string(prog.Encode()))
	syms := make([]string, 0, len(in))
	for sym := range in {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	fmt.Fprintf(h, "syms=%d;", len(syms))
	for _, sym := range syms {
		put(sym)
		fmt.Fprintf(h, "%d:", len(in[sym]))
		for _, w := range in[sym] {
			fmt.Fprintf(h, "%016x,", w)
		}
		fmt.Fprintf(h, ";")
	}
	fmt.Fprintf(h, "cores=%d;topo=%s;shortcut=%v;cap=%d;seed=%d;",
		p.Cores, p.Topology, p.Shortcut, p.MaxSections, p.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// machineKey derives the warm-pool identity of a point's machine: the
// encoded program plus every configuration coordinate that shapes the
// simulated chip. It deliberately excludes the inputs and the seed (inputs
// are injected per run after Machine.Reset) and the scheduler choice (Dense —
// the pool re-arms it per Get), so a pooled machine is reused across every
// point that differs only in workload data or scheduler.
func machineKey(prog *isa.Program, p Point) string {
	h := sha256.New()
	put := func(s string) {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	put("machine-v1")
	put(string(prog.Encode()))
	fmt.Fprintf(h, "cores=%d;topo=%s;shortcut=%v;cap=%d;",
		p.Cores, p.Topology, p.Shortcut, p.MaxSections)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a persistent content-keyed store of sweep metrics: one JSON file
// per key under a directory, written atomically (temp file + rename), so
// concurrent workers and separate processes can share it safely.
type Cache struct {
	dir string
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the metrics stored under key, if any. Unreadable or corrupt
// entries count as misses.
func (c *Cache) Get(key string) (*Metrics, bool) {
	if c == nil {
		return nil, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	var m Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, false
	}
	return &m, true
}

// Put stores the metrics under key.
func (c *Cache) Put(key string, m *Metrics) error {
	if c == nil {
		return nil
	}
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.path(key))
}

// Len counts the stored entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n
}
