package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// mixTemplates are served-mix's base grids: small sweeps over every kernel,
// core counts and topologies, cheap enough that a cache hit costs about as
// much as the front end, yet each cold re-submission simulates.
var mixTemplates = []sweep.Spec{
	{Kernels: []int{4, 10}, Sizes: []int{32}, Cores: []int{1, 4, 16}},
	{Kernels: []int{2}, Sizes: []int{32}, Cores: []int{1, 4}, Topologies: []string{"crossbar", "mesh"}},
	{Kernels: []int{6, 7}, Sizes: []int{32}, Cores: []int{2, 8}, Topologies: []string{"ring"}},
	{Kernels: []int{11}, Sizes: []int{48}, Cores: []int{1, 16}, Topologies: []string{"crossbar", "ring"}},
	{Kernels: []int{1}, Sizes: []int{32}, Cores: []int{4}, Shortcut: []bool{true, false}},
	{Kernels: []int{5}, Sizes: []int{32}, Cores: []int{4, 16}, Topologies: []string{"mesh"}},
	{Kernels: []int{3}, Sizes: []int{24}, Cores: []int{2, 8}},
	{Kernels: []int{8}, Sizes: []int{16}, Cores: []int{4}, Topologies: []string{"crossbar", "ring", "mesh"}},
	{Kernels: []int{9}, Sizes: []int{16}, Cores: []int{1, 8}},
	{Kernels: []int{4, 6, 7, 10, 11}, Sizes: []int{64}, Cores: []int{8}},
}

// Per template, one block of the job sequence holds mixReads re-submissions
// of the cached base grid, mixColds re-submissions with a fresh input seed,
// and one fresh submission sent by both clients at once: 70% reads, 20%
// cold, 10% singleflight pairs over the ten templates.
const (
	mixReads  = 7
	mixColds  = 2
	mixBlocks = 6
)

type mixKind int

const (
	mixRead mixKind = iota
	mixCold
	mixPair
)

func (k mixKind) String() string { return [...]string{"read", "cold", "pair"}[k] }

// mixStep is one step of the closed loop: a template at an input seed. A
// pair step is submitted by both clients at once.
type mixStep struct {
	Kind     mixKind
	Template int
	Seed     uint64
}

func (s mixStep) spec() *sweep.Spec {
	sp := mixTemplates[s.Template]
	sp.Seed = s.Seed
	return &sp
}

// baseSeed is the input seed of template t's cached base grid.
func baseSeed(seed uint64, t int) uint64 { return deriveSeed(seed, 1, uint64(t)) }

// mixSequence is served-mix's job sequence for a workload seed: the same
// seed always gives the same steps in the same order.
func mixSequence(seed uint64) []mixStep {
	var steps []mixStep
	for b := 0; b < mixBlocks; b++ {
		for t := range mixTemplates {
			for i := 0; i < mixReads; i++ {
				steps = append(steps, mixStep{mixRead, t, baseSeed(seed, t)})
			}
			for i := 0; i < mixColds; i++ {
				steps = append(steps, mixStep{mixCold, t, deriveSeed(seed, 2, uint64(b), uint64(t), uint64(i))})
			}
			steps = append(steps, mixStep{mixPair, t, deriveSeed(seed, 3, uint64(b), uint64(t))})
		}
	}
	rng := deriveSeed(seed, 4)
	for i := len(steps) - 1; i > 0; i-- {
		rng = splitmix(rng)
		j := int(rng % uint64(i+1))
		steps[i], steps[j] = steps[j], steps[i]
	}
	return steps
}

// splitmix is one step of the SplitMix64 generator.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed mixes a workload seed with tags into a nonzero input seed.
func deriveSeed(seed uint64, tags ...uint64) uint64 {
	x := splitmix(seed)
	for _, t := range tags {
		x = splitmix(x ^ t)
	}
	if x == 0 {
		x = 1
	}
	return x
}

// servedMix runs `repro serve`'s stack in-process: server.New over a
// fabric.Coordinator with no workers (the exact local path), on a loopback
// listener, with the product defaults (two concurrent jobs, the warm pool,
// idle-skip scheduling) except one engine worker per job.
type servedMix struct {
	eng    *sweep.Engine
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	steps  []mixStep
	warm   [][]sweep.Record // engine-path records of each base grid
}

func (w *servedMix) Setup(e *env) error {
	cache, err := newCache(e, "serve-cache")
	if err != nil {
		return err
	}
	// One engine worker per job: with two jobs executing at once that is
	// the load bound of nproc engine workers.
	w.eng = &sweep.Engine{Cache: cache, Workers: 1, Pool: machine.NewPool()}
	coord := &fabric.Coordinator{Eng: w.eng, Cache: cache, LeaseTTL: 5 * time.Second, Batch: 8, Log: e.log}
	srv := server.New(server.Config{Engine: w.eng, Runner: coord, Log: e.log, MaxConcurrentJobs: 2})
	mux := http.NewServeMux()
	mux.Handle("/fabric/v1/", coord.Handler())
	mux.Handle("/", srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: mux}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: engineWorkers}}
	resp, err := w.client.Get(w.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("served-mix: healthz %s", resp.Status)
	}
	// Warm the cache with every base grid through the engine path.
	w.warm = make([][]sweep.Record, len(mixTemplates))
	for t := range mixTemplates {
		st := mixStep{mixRead, t, baseSeed(e.seed, t)}
		if w.warm[t], err = w.eng.Run(st.spec(), nil); err != nil {
			return fmt.Errorf("served-mix warm-up: %w", err)
		}
	}
	w.steps = mixSequence(e.seed)
	return nil
}

func (w *servedMix) Close() {
	if w.hs == nil {
		return
	}
	// Close, not Shutdown: every job has finished, and Shutdown waits up to
	// 5 s for connections opened but never used.
	_ = w.hs.Close()
	<-w.served
	w.client.CloseIdleConnections()
}

// jobOut is one finished job of the loop.
type jobOut struct {
	recs    []sweep.Record
	latency time.Duration
	err     error
}

// loop runs the steps as a closed loop of two clients: each submits its next
// job only after its previous job's results stream ended. A pair step waits
// for both clients and hands the same submission to each. out[i] holds step
// i's jobs (two for a pair).
func loop(steps []mixStep, do func(step, slot int, st mixStep) jobOut) [][]jobOut {
	type task struct{ step, slot int }
	out := make([][]jobOut, len(steps))
	for i, s := range steps {
		out[i] = make([]jobOut, 1+boolInt(s.Kind == mixPair))
	}
	tasks := make(chan task)
	var busy, clients sync.WaitGroup
	for c := 0; c < engineWorkers; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for t := range tasks {
				out[t.step][t.slot] = do(t.step, t.slot, steps[t.step])
				busy.Done()
			}
		}()
	}
	for i, s := range steps {
		if s.Kind == mixPair {
			busy.Wait()
			busy.Add(2)
			tasks <- task{i, 0}
			tasks <- task{i, 1}
			continue
		}
		busy.Add(1)
		tasks <- task{i, 0}
	}
	close(tasks)
	clients.Wait()
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// submit posts one sweep and streams its results to the last JSONL line.
// With a tracer it records the client-side spans and, from the job's status,
// its queue and execution intervals.
func (w *servedMix) submit(tr *Tracer, st mixStep) jobOut {
	sp := st.spec()
	req := server.SweepRequest{Sizes: sp.Sizes, Cores: sp.Cores, Topologies: sp.Topologies,
		Shortcut: sp.Shortcut, Seed: sp.Seed}
	for _, k := range sp.Kernels {
		req.Kernels = append(req.Kernels, server.KernelSel(fmt.Sprint(k)))
	}
	body, err := json.Marshal(req)
	if err != nil {
		return jobOut{err: err}
	}
	job := tr.Begin(spanJob, 0)
	defer tr.Finish(job)
	start := time.Now()
	var status server.Status
	id := tr.Begin(spanSubmit, job)
	err = w.call(http.MethodPost, "/v1/sweeps", body, http.StatusAccepted, &status)
	tr.Finish(id)
	if err != nil {
		return jobOut{err: err}
	}
	var recs []sweep.Record
	id = tr.Begin(spanStream, job)
	resp, err := w.client.Get(w.url + status.Results)
	if err == nil {
		recs, err = sweep.ReadJSONL(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("results: %s", resp.Status)
		}
	}
	out := jobOut{recs: recs, latency: time.Since(start), err: err}
	tr.Finish(id)
	if tr != nil && err == nil {
		var done server.Status
		if err := w.call(http.MethodGet, "/v1/sweeps/"+status.ID, nil, http.StatusOK, &done); err != nil {
			out.err = err
		} else if done.Started != nil && done.Finished != nil {
			tr.Record(spanQueue, job, done.Created, *done.Started)
			tr.Record(spanExec, job, *done.Started, *done.Finished)
		}
	}
	return out
}

func (w *servedMix) call(method, path string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, w.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (w *servedMix) Pass(e *env, chk *Checker) (*passOut, error) {
	out, _, err := w.pass(e, chk)
	return out, err
}

func (w *servedMix) pass(e *env, chk *Checker) (*passOut, [][]jobOut, error) {
	eng0, pool0 := w.eng.Stats(), w.eng.Pool.Stats()
	rss := startRSS()
	start := time.Now()
	jobs := loop(w.steps, func(_, _ int, st mixStep) jobOut { return w.submit(e.tr, st) })
	out := &passOut{wall: time.Since(start), rss: rss.Stop()}
	eng1, pool1 := w.eng.Stats(), w.eng.Pool.Stats()
	out.engine = sweep.Stats{Points: eng1.Points - eng0.Points, Hits: eng1.Hits - eng0.Hits,
		Coalesced: eng1.Coalesced - eng0.Coalesced, Simulated: eng1.Simulated - eng0.Simulated,
		Failures: eng1.Failures - eng0.Failures}
	out.pool = machine.PoolStats{Hits: pool1.Hits - pool0.Hits, Misses: pool1.Misses - pool0.Misses}

	// The engine path's records for every fresh submission: an uncached
	// engine simulates them again.
	ref := &sweep.Engine{Workers: e.workers}
	want := e.refs
	seen := map[string]bool{}
	for i, st := range w.steps {
		for _, j := range jobs[i] {
			out.attempted++
			out.lat = append(out.lat, ms(j.latency))
			out.recs = append(out.recs, j.recs...)
			pts, err := st.spec().Points()
			if err != nil {
				return nil, nil, err
			}
			what := fmt.Sprintf("served-mix step %d (%s)", i, st.Kind)
			if j.err != nil {
				chk.Failf("%s: %v", what, j.err)
				out.failed++
				continue
			}
			if chk.GridOrder(what, j.recs, pts) > 0 {
				out.failed++
				continue
			}
			if st.Kind == mixRead {
				chk.SameRecords(what, j.recs, w.warm[st.Template])
				continue
			}
			if want[st] == nil {
				want[st], _ = ref.Run(st.spec(), nil) // failures surface as record mismatches
			}
			chk.SameRecords(what, j.recs, want[st])
			for _, r := range j.recs {
				if !seen[r.Key] {
					seen[r.Key] = true
					out.simNs += r.SimNs
					out.simCycles += r.Cycles
				}
			}
		}
	}
	return out, jobs, nil
}

// hitSplit times the parts of a cache hit on served-mix's cached points:
// Engine.Measure on the hit, and Build, Gen and Cache.Get of the same
// point. What Measure spends beyond the three is the unexported key
// derivation plus bookkeeping.
type hitSplit struct {
	n                        int
	measure, build, gen, get time.Duration
}

// hitSplitReps repeats each point's timing to smooth host noise.
const hitSplitReps = 6

func measureHitSplit(eng *sweep.Engine, pts []sweep.Point) (*hitSplit, error) {
	h := &hitSplit{}
	for rep := 0; rep < hitSplitReps; rep++ {
		for _, p := range pts {
			k, err := pbbs.ByID(p.Kernel)
			if err != nil {
				return nil, err
			}
			// Alternate which side runs first, so neither always finds
			// the file and the lowering caches warmer.
			var rec sweep.Record
			var measure time.Duration
			timeMeasure := func() {
				t := time.Now()
				rec = eng.Measure(p)
				measure = time.Since(t)
			}
			if rep%2 == 0 {
				timeMeasure()
			}
			t0 := time.Now()
			prog, err := k.Build(p.N, minic.ModeFork)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			in := k.Gen(p.N, p.Seed)
			t2 := time.Now()
			key := contentKey(prog, in, p)
			t3 := time.Now()
			_, ok := eng.Cache.Get(key)
			t4 := time.Now()
			if rep%2 == 1 {
				timeMeasure()
			}
			if !ok || rec.Err != "" {
				return nil, fmt.Errorf("hit split: %s n=%d %s is not a cache hit", p.Name, p.N, p.Config())
			}
			h.n++
			h.measure += measure
			h.build += t1.Sub(t0)
			h.gen += t2.Sub(t1)
			h.get += t4.Sub(t3)
		}
	}
	return h, nil
}

func (w *servedMix) Traced(e *env, chk *Checker) (*passOut, error) {
	out, jobs, err := w.pass(e, chk)
	if err != nil {
		return nil, err
	}
	// Replay the same sequence in-process through the traced public calls,
	// over a cache warmed the same way and a fresh pool. A pair's second
	// submission coalesces in the engine, so the replay measures it once.
	cache, err := newCache(e, "replay-cache")
	if err != nil {
		return nil, err
	}
	warmEng := &sweep.Engine{Cache: cache, Workers: e.workers}
	var hitPts []sweep.Point
	for t := range mixTemplates {
		st := mixStep{mixRead, t, baseSeed(e.seed, t)}
		if _, err := warmEng.Run(st.spec(), nil); err != nil {
			return nil, fmt.Errorf("served-mix replay warm-up: %w", err)
		}
		pts, err := st.spec().Points()
		if err != nil {
			return nil, err
		}
		hitPts = append(hitPts, pts...)
	}
	rp := &Replay{Cache: cache, Pool: machine.NewPool(), Tr: e.tr}
	var jmu sync.Mutex
	jw := sweep.NewJSONLWriter(&bytes.Buffer{})
	replayed := loop(w.steps, func(_, slot int, st mixStep) jobOut {
		if slot > 0 {
			return jobOut{}
		}
		pts, err := st.spec().Points()
		if err != nil {
			return jobOut{err: err}
		}
		job := e.tr.Begin(spanJob+" replay", 0)
		defer e.tr.Finish(job)
		recs := make([]sweep.Record, len(pts))
		for k, p := range pts {
			recs[k] = rp.Measure(job, p)
			jmu.Lock()
			e.tr.Do(spanJSONL, job, func() { err = jw.Write(recs[k]) })
			jmu.Unlock()
			if err != nil {
				return jobOut{err: err}
			}
		}
		return jobOut{recs: recs}
	})
	for i, st := range w.steps {
		if j := replayed[i][0]; j.err != nil {
			return nil, j.err
		}
		chk.SameRecords(fmt.Sprintf("served-mix replay of step %d (%s)", i, st.Kind), replayed[i][0].recs, jobs[i][0].recs)
	}
	out.replay = rp
	if out.hit, err = measureHitSplit(warmEng, hitPts); err != nil {
		return nil, err
	}
	return out, nil
}
