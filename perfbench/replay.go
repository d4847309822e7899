package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/sweep"
)

// Span names of the traced replay, one per public call on the record path.
const (
	spanPoint     = "point"
	spanBuild     = "pbbs.Build"
	spanGen       = "pbbs.Gen"
	spanRef       = "pbbs.Ref"
	spanGet       = "sweep.Cache.Get"
	spanPut       = "sweep.Cache.Put"
	spanJSONL     = "sweep.JSONLWriter.Write"
	spanNew       = "machine.New"
	spanInject    = "backend.Inject"
	spanRun       = "machine.Run"
	spanPass      = "pass"
	spanJob       = "job"
	spanSubmit    = "server.submit"
	spanQueue     = "server.queue"
	spanExec      = "server.exec"
	spanStream    = "server.stream"
	spanFabricRun = "fabric.Coordinator.Run"
)

// Replay drives one point at a time through the same public calls as
// sweep.Engine.Measure, in the same order, with a span around each:
//
//	Build → Gen → Cache.Get → MakeNet + New/Pool.Get → Inject → Run → Ref → Cache.Put
//
// It is the traced stand-in for Measure; TestReplayMatchesMeasure pins that
// both produce the same timing-stripped record. It has no singleflight, so
// callers must not replay one content key concurrently.
type Replay struct {
	Cache *sweep.Cache
	Pool  *machine.Pool
	Tr    *Tracer

	mu  sync.Mutex
	Sim SimStats // machine counters of the points simulated
}

// Measure replays point p under the parent span and returns its record.
func (r *Replay) Measure(parent int64, p sweep.Point) sweep.Record {
	span := r.Tr.Begin(spanPoint, parent)
	defer r.Tr.Finish(span)
	rec := sweep.Record{Point: p}
	fail := func(err error) sweep.Record {
		rec.Err = err.Error()
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
		rec.RequestedN = requested
	}
	var prog *isa.Program
	r.Tr.Do(spanBuild, span, func() { prog, err = k.Build(p.N, minic.ModeFork) })
	if err != nil {
		return fail(err)
	}
	var in backend.Inputs
	r.Tr.Do(spanGen, span, func() { in = k.Gen(p.N, p.Seed) })
	rec.Key = contentKey(prog, in, p)

	var m *sweep.Metrics
	var ok bool
	r.Tr.Do(spanGet, span, func() { m, ok = r.Cache.Get(rec.Key) })
	if ok {
		rec.Metrics = *m
		return rec
	}

	var sim *machine.Machine
	start := time.Now()
	id := r.Tr.Begin(spanNew, span)
	net, err := sweep.MakeNet(p.Topology, p.Cores)
	if err == nil {
		cfg := machine.Config{
			Cores: p.Cores, Net: net, CreateLatency: 2,
			Shortcut: p.Shortcut, MaxSectionsPerCore: p.MaxSections,
		}
		if r.Pool != nil {
			sim, err = r.Pool.Get(poolKey(prog, p), prog, cfg)
		} else {
			sim, err = machine.New(prog, cfg)
		}
	}
	r.Tr.Finish(id)
	if err != nil {
		return fail(err)
	}
	r.Tr.Do(spanInject, span, func() { err = backend.Inject(prog, sim.DMH(), in) })
	if err != nil {
		return fail(err)
	}
	var mr *machine.Result
	r.Tr.Do(spanRun, span, func() { mr, err = sim.Run() })
	simNs := time.Since(start).Nanoseconds()
	if err != nil {
		return fail(err)
	}
	if r.Pool != nil {
		r.Pool.Put(poolKey(prog, p), sim)
	}
	var want uint64
	r.Tr.Do(spanRef, span, func() { want, err = k.Ref(p.N, in) })
	if err != nil {
		return fail(fmt.Errorf("reference: %w", err))
	}
	if mr.RAX != want {
		return fail(fmt.Errorf("checksum %d, reference %d", mr.RAX, want))
	}
	rec.Metrics = sweep.Metrics{
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
	r.mu.Lock()
	r.Sim.Add(p.N, simNs, mr)
	r.mu.Unlock()
	r.Tr.Do(spanPut, span, func() { _ = r.Cache.Put(rec.Key, &rec.Metrics) })
	return rec
}

// contentKey mirrors sweep's unexported cacheKey derivation so the replay
// can look points up in the same cache; TestReplayMatchesMeasure fails when
// the two drift apart.
func contentKey(prog *isa.Program, in backend.Inputs, p sweep.Point) string {
	h := sha256.New()
	put := func(s string) {
		fmt.Fprintf(h, "%d:%s;", len(s), s)
	}
	put("sweep-v2")
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

// poolKey mirrors sweep's unexported warm-pool key: the program plus every
// shape coordinate, excluding inputs and seed, so the replay's pool hits on
// exactly the points the engine's pool hits on.
func poolKey(prog *isa.Program, p sweep.Point) string {
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

// SimStats accumulates the exact machine.Result counters of simulated points
// and their host simulation time.
type SimStats struct {
	Points                                  int
	SimNs                                   int64
	Cycles, Instructions, Sections          int64
	FetchDone, RetireDone                   int64
	RegRequests, MemRequests, DMHAnswers    int64
	CreateMsgs, RequestHops, ResponseMsgs   int64
	Imbalance                               float64 // summed per point
	WaitRename, WaitIssue, WaitMem, WaitRet int64
	NRename, NIssue, NMem, NRet             int64
	// ByN holds simulation ns and cycles per dataset size.
	ByN map[int][2]int64
}

// Add folds one simulated point's result in.
func (s *SimStats) Add(n int, simNs int64, r *machine.Result) {
	s.Points++
	s.SimNs += simNs
	s.Cycles += r.Cycles
	s.Instructions += r.Instructions
	s.Sections += int64(len(r.Sections))
	s.FetchDone += r.FetchDone
	s.RetireDone += r.RetireDone
	s.RegRequests += r.RegRequests
	s.MemRequests += r.MemRequests
	s.DMHAnswers += r.DMHAnswers
	s.CreateMsgs += r.CreateMessages
	s.RequestHops += r.RequestHops
	s.ResponseMsgs += r.ResponseMessages
	var sum, top int64
	for _, f := range r.FetchedPerCore {
		sum += f
		top = max(top, f)
	}
	if sum > 0 {
		s.Imbalance += float64(top) / (float64(sum) / float64(len(r.FetchedPerCore)))
	}
	for _, t := range r.Timings {
		if t.FD > 0 && t.RR > 0 {
			s.WaitRename += t.RR - t.FD
			s.NRename++
		}
		if t.RR > 0 && t.EW > 0 {
			s.WaitIssue += t.EW - t.RR
			s.NIssue++
		}
		if t.AR > 0 && t.MA > 0 {
			s.WaitMem += t.MA - t.AR
			s.NMem++
		}
		if done := max(t.EW, t.MA); t.RET > 0 && done > 0 {
			s.WaitRet += t.RET - done
			s.NRet++
		}
	}
	if s.ByN == nil {
		s.ByN = make(map[int][2]int64)
	}
	v := s.ByN[n]
	s.ByN[n] = [2]int64{v[0] + simNs, v[1] + r.Cycles}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
