package machine

import (
	"fmt"
	"sync"

	"repro/internal/isa"
)

// Pool is a warm-machine pool layered on Machine.Reset: callers that run
// many simulations of the same program and configuration (a sweep over
// seeds, a benchmark's repetitions, a job server's resubmissions) check a
// machine out, run it, and return it, so the section shells (with their
// instruction-list capacity), queue buffers, alias-table backings and
// request free list warmed by the first run are reused instead of a fresh
// machine being constructed — and, in steady state, the run allocates
// nothing (the property pinned by internal/bench's allocation tests, which
// hold through this pool). The per-instruction arenas are not the pool's
// business: every completed run hands their chunks to process-wide free
// lists (pool.go), which serve fresh and pooled machines alike.
//
// Machines are pooled under a caller-provided key that MUST determine the
// program content and every shape-affecting configuration field (cores,
// topology, latencies, caps) — internal/sweep derives it from the encoded
// program and the point coordinates. The pure scheduling knob, Dense, is
// deliberately NOT part of the machine's shape: a Get re-arms the pooled
// machine with the requested value, so one pool serves both schedulers
// (results are bit-identical across them by the scheduler oracle). Get
// still cross-checks the pooled machine's program shape and configuration
// against the request and fails descriptively on a mismatch, so a buggy key
// derivation surfaces as an error, not as silently wrong results.
type Pool struct {
	// MaxIdle bounds the machines parked in the pool across all keys;
	// returning a machine to a full pool drops it for the GC instead. 0
	// means DefaultMaxIdle.
	MaxIdle int

	mu    sync.Mutex
	free  map[string][]*Machine
	idle  int
	stats PoolStats
}

// DefaultMaxIdle is the default bound on parked machines. A parked machine
// holds no arena chunks (its completed run released them), only its section
// shells, queue buffers and alias-table backings, sized to its workload; the
// pool keeps about as many as a host's worth of sweep workers can have in
// flight.
const DefaultMaxIdle = 32

// PoolStats counts what the pool did.
type PoolStats struct {
	// Hits is how many Gets were served by a warmed machine.
	Hits int64
	// Misses is how many Gets constructed a fresh machine.
	Misses int64
	// Dropped is how many Puts found the pool full and released the
	// machine to the GC.
	Dropped int64
}

// NewPool returns an empty pool with the default idle bound.
func NewPool() *Pool { return &Pool{} }

// Stats returns the counters accumulated so far.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Get returns a machine for prog under cfg: a pooled machine for key, Reset
// and re-armed with cfg's scheduler choice, or a freshly constructed one.
// Either way the machine is in the post-New state — the caller injects
// inputs into DMH() and calls Run, exactly as after New. After a successful
// run, return the machine with Put(key, m); after a failed one, drop it (a
// faulted machine's state is not worth reusing).
func (p *Pool) Get(key string, prog *isa.Program, cfg Config) (*Machine, error) {
	p.mu.Lock()
	if ms := p.free[key]; len(ms) > 0 {
		m := ms[len(ms)-1]
		ms[len(ms)-1] = nil
		p.free[key] = ms[:len(ms)-1]
		p.idle--
		p.stats.Hits++
		p.mu.Unlock()
		if err := m.checkPooled(key, prog, cfg); err != nil {
			return nil, err
		}
		m.cfg.Dense = cfg.Dense
		m.Reset()
		return m, nil
	}
	p.stats.Misses++
	p.mu.Unlock()
	return New(prog, cfg)
}

// Put parks a machine under key for a later Get. Only machines obtained from
// Get(key, …) that completed a successful Run belong here.
func (p *Pool) Put(key string, m *Machine) {
	max := p.MaxIdle
	if max <= 0 {
		max = DefaultMaxIdle
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle >= max {
		p.stats.Dropped++
		return
	}
	if p.free == nil {
		p.free = make(map[string][]*Machine)
	}
	p.free[key] = append(p.free[key], m)
	p.idle++
}

// checkPooled verifies that a pooled machine actually matches the requested
// program and configuration — the defensive net under the key contract. The
// program check is on shape (text length, data length, entry), not content:
// the key is expected to hash the full content, this catches derivation bugs
// loudly. Dense is excluded: Get re-arms it per request.
func (m *Machine) checkPooled(key string, prog *isa.Program, cfg Config) error {
	cfg = cfg.withDefaults()
	old, mismatch := "", ""
	switch {
	case len(m.prog.Text) != len(prog.Text) || len(m.prog.Data) != len(prog.Data) || m.prog.Entry != prog.Entry:
		old = fmt.Sprintf("text=%d data=%d entry=%d", len(m.prog.Text), len(m.prog.Data), m.prog.Entry)
		mismatch = fmt.Sprintf("text=%d data=%d entry=%d", len(prog.Text), len(prog.Data), prog.Entry)
	case m.cfg.Cores != cfg.Cores:
		old, mismatch = fmt.Sprintf("cores=%d", m.cfg.Cores), fmt.Sprintf("cores=%d", cfg.Cores)
	case m.cfg.Net.Name() != cfg.Net.Name():
		old, mismatch = "net="+m.cfg.Net.Name(), "net="+cfg.Net.Name()
	case m.cfg.CreateLatency != cfg.CreateLatency:
		old, mismatch = fmt.Sprintf("createLatency=%d", m.cfg.CreateLatency), fmt.Sprintf("createLatency=%d", cfg.CreateLatency)
	case m.cfg.Shortcut != cfg.Shortcut:
		old, mismatch = fmt.Sprintf("shortcut=%v", m.cfg.Shortcut), fmt.Sprintf("shortcut=%v", cfg.Shortcut)
	case m.cfg.MaxSectionsPerCore != cfg.MaxSectionsPerCore:
		old, mismatch = fmt.Sprintf("maxSections=%d", m.cfg.MaxSectionsPerCore), fmt.Sprintf("maxSections=%d", cfg.MaxSectionsPerCore)
	case m.cfg.StallLimit != cfg.StallLimit:
		old, mismatch = fmt.Sprintf("stallLimit=%d", m.cfg.StallLimit), fmt.Sprintf("stallLimit=%d", cfg.StallLimit)
	case m.cfg.MaxCycles != cfg.MaxCycles:
		old, mismatch = fmt.Sprintf("maxCycles=%d", m.cfg.MaxCycles), fmt.Sprintf("maxCycles=%d", cfg.MaxCycles)
	default:
		return nil
	}
	return fmt.Errorf("machine: pool key %q collision: pooled machine has %s, request wants %s (the pool key must determine the program and configuration)",
		key, old, mismatch)
}
