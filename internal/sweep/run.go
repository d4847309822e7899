package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// Stats counts what a sweep run did.
type Stats struct {
	// Points is the grid size after normalisation and dedup.
	Points int
	// Hits is how many points were served from the cache.
	Hits int
	// Coalesced is how many points shared a concurrent in-flight measurement
	// of the same content key instead of simulating (singleflight).
	Coalesced int
	// Simulated is how many points ran the machine simulator.
	Simulated int
	// Failures is how many points errored (build, divergence, timeout).
	Failures int
}

func (s Stats) String() string {
	return fmt.Sprintf("%d points: %d cached, %d coalesced, %d simulated, %d failed",
		s.Points, s.Hits, s.Coalesced, s.Simulated, s.Failures)
}

// Engine measures sweep grids with a worker pool and an optional persistent
// cache.
type Engine struct {
	// Cache, when non-nil, serves repeated points without re-simulation.
	Cache *Cache
	// Workers bounds concurrent measurements; <= 0 uses GOMAXPROCS.
	Workers int
	// Dense selects the machine's reference dense scheduler instead of the
	// default idle-skip one. Simulation outcomes are identical either way
	// (only SimNs/NsPerCycle differ), so the cache key is unaffected.
	Dense bool
	// Pool, when non-nil, serves machines from a warm pool instead of
	// constructing one per measurement: points sharing a program and
	// configuration (same kernel, size, cores, topology — only inputs/seed
	// differing) reuse a Reset machine, amortizing arena setup. Simulation
	// outcomes are byte-identical with and without the pool (pinned by
	// TestPooledRunsMatchFresh).
	Pool *machine.Pool

	mu      sync.Mutex
	stats   Stats
	flights flightGroup
}

// Stats returns the counters accumulated over every Run of this engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Run measures every point of the grid. Workers measure concurrently, but
// emit (when non-nil) is called from a single goroutine in deterministic
// grid order, as soon as each prefix of the grid is complete — the streaming
// hook for incremental JSONL output. The returned records are in the same
// order. Per-point failures are reported inside the records (Record.Err) and
// joined into the returned error.
func (e *Engine) Run(spec *Spec, emit func(Record)) ([]Record, error) {
	pts, err := spec.Points()
	if err != nil {
		return nil, err
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) && len(pts) > 0 {
		workers = len(pts)
	}

	recs := make([]Record, len(pts))
	ready := make([]chan struct{}, len(pts))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				recs[i] = e.Measure(pts[i])
				close(ready[i])
			}
		}()
	}
	go func() {
		for i := range pts {
			jobs <- i
		}
		close(jobs)
	}()

	var errs []error
	for i := range pts {
		<-ready[i]
		if emit != nil {
			emit(recs[i])
		}
		if recs[i].Err != "" {
			errs = append(errs, fmt.Errorf("%s n=%d %s: %s",
				recs[i].Name, recs[i].N, recs[i].Config(), recs[i].Err))
		}
	}
	wg.Wait()
	return recs, errors.Join(errs...)
}

// Measure runs one point: resolve the kernel, derive the content key, serve
// from the cache or compile + simulate + validate, and store the outcome. It
// is the programmatic run-one-point API (the grid path Run and the job
// server both build on it) and is safe for concurrent use: concurrent
// measurements of the same content key are coalesced (singleflight), so N
// identical in-flight submissions simulate a point exactly once and share
// the outcome. A dataset size below the kernel's minimum is clamped and the
// display name is normalised; the returned record carries the effective
// point.
func (e *Engine) Measure(p Point) Record {
	rec := Record{Point: p}
	e.count(func(s *Stats) { s.Points++ })

	fail := func(err error) Record {
		rec.Err = err.Error()
		e.count(func(s *Stats) { s.Failures++ })
		return rec
	}

	k, err := pbbs.ByID(p.Kernel)
	if err != nil {
		return fail(err)
	}
	requested := p.N
	p.N, p.Name = k.ClampN(p.N), k.Name
	rec.Point = p
	if p.N != requested {
		// The clamp used to be silent; the record now carries the size the
		// caller asked for next to the size that actually ran.
		rec.RequestedN = requested
	}
	prog, err := k.Build(p.N, minic.ModeFork)
	if err != nil {
		return fail(err)
	}
	in := k.Gen(p.N, p.Seed)
	rec.Key = cacheKey(prog, in, p)

	f, leader := e.flights.join(rec.Key)
	if !leader {
		<-f.done
		rec.Metrics, rec.Err = f.metrics, f.errMsg
		e.count(func(s *Stats) {
			if rec.Err != "" {
				s.Failures++
			} else {
				s.Coalesced++
			}
		})
		return rec
	}
	defer func() { e.flights.finish(rec.Key, f, rec.Metrics, rec.Err) }()

	if m, ok := e.Cache.Get(rec.Key); ok {
		rec.Metrics = *m
		e.count(func(s *Stats) { s.Hits++ })
		return rec
	}

	net, err := MakeNet(p.Topology, p.Cores)
	if err != nil {
		return fail(err)
	}
	cfg := machine.Config{
		Cores:              p.Cores,
		Net:                net,
		CreateLatency:      2,
		Shortcut:           p.Shortcut,
		MaxSectionsPerCore: p.MaxSections,
		Dense:              e.Dense,
	}
	// The timed window covers machine acquisition, input injection and the
	// run, so SimNs reflects what the pool amortizes: a pooled Get is a
	// Reset of warmed arenas where a fresh construction allocates them.
	start := time.Now()
	var sim *machine.Machine
	if e.Pool != nil {
		sim, err = e.Pool.Get(machineKey(prog, p), prog, cfg)
	} else {
		sim, err = machine.New(prog, cfg)
	}
	if err != nil {
		return fail(err)
	}
	if err := backend.Inject(prog, sim.DMH(), in); err != nil {
		return fail(err)
	}
	mr, err := sim.Run()
	simNs := time.Since(start).Nanoseconds()
	if err != nil {
		return fail(err)
	}
	// A faulted machine is not returned to the pool; this one ran clean.
	if e.Pool != nil {
		e.Pool.Put(machineKey(prog, p), sim)
	}
	e.count(func(s *Stats) { s.Simulated++ })
	want, err := k.Ref(p.N, in)
	if err != nil {
		return fail(fmt.Errorf("reference: %w", err))
	}
	if mr.RAX != want {
		return fail(fmt.Errorf("checksum %d, reference %d", mr.RAX, want))
	}
	rec.Metrics = Metrics{
		Instructions:     mr.Instructions,
		Cycles:           mr.Cycles,
		IPC:              float64(mr.Instructions) / float64(mr.Cycles),
		FetchCycles:      mr.FetchDone,
		RetireCycles:     mr.RetireDone,
		Sections:         len(mr.Sections),
		RegRequests:      mr.RegRequests,
		MemRequests:      mr.MemRequests,
		CreateMessages:   mr.CreateMessages,
		RequestHops:      mr.RequestHops,
		ResponseMessages: mr.ResponseMessages,
		DMHAnswers:       mr.DMHAnswers,
		NocMessages:      mr.NocMessages(),
		Checksum:         mr.RAX,
		SimNs:            simNs,
		NsPerCycle:       float64(simNs) / float64(mr.Cycles),
	}
	// The cache is best-effort: a failed store just means the point is
	// re-simulated next time.
	_ = e.Cache.Put(rec.Key, &rec.Metrics)
	return rec
}

func (e *Engine) count(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}
