package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/sweep"
)

// paperSpec is the Figs. 8–10 grid: every kernel at n=64 over 1–16 cores,
// every topology, shortcut on and off (330 points).
func paperSpec(seed uint64) *sweep.Spec {
	return &sweep.Spec{
		Sizes:      []int{64},
		Cores:      []int{1, 2, 4, 8, 16},
		Topologies: append([]string(nil), sweep.Topologies...),
		Shortcut:   []bool{true, false},
		Seed:       seed,
	}
}

// sliceSpec is fabric-grid's paper-scale slice: quickSort n=256 on 64 cores,
// every topology, shortcut on and off. One lease takes the whole slice, and
// it outlives the 5 s lease TTL.
func sliceSpec(seed uint64) *sweep.Spec {
	return &sweep.Spec{
		Kernels:    []int{quickSortID},
		Sizes:      []int{256},
		Cores:      []int{64},
		Topologies: append([]string(nil), sweep.Topologies...),
		Shortcut:   []bool{true, false},
		Seed:       seed,
	}
}

const quickSortID = 2

// paperGridSize is the paper grid's point count.
var paperGridSize = func() int {
	pts, err := paperSpec(1).Points()
	if err != nil {
		panic(err) // a fixed, valid spec
	}
	return len(pts)
}()

// newCache opens a fresh, empty cache directory under the run's scratch dir.
func newCache(e *env, name string) (*sweep.Cache, error) {
	dir, err := os.MkdirTemp(e.dir, name+"-")
	if err != nil {
		return nil, err
	}
	return sweep.NewCache(dir)
}

// jsonlFile opens the pass's JSONL output, as `repro sweep -o` writes it.
func jsonlFile(e *env, name string) (*os.File, *sweep.JSONLWriter, error) {
	f, err := os.Create(filepath.Join(e.dir, name+".jsonl"))
	if err != nil {
		return nil, nil, err
	}
	return f, sweep.NewJSONLWriter(f), nil
}

// simulated folds in the host simulation time and cycles of records
// measured in this pass.
func (o *passOut) simulated(recs []sweep.Record) {
	for _, r := range recs {
		o.simNs += r.SimNs
		o.simCycles += r.Cycles
	}
}

// ---- paper-grid ----

// paperGrid is `repro sweep` over the paper grid: Engine.Run with two
// workers, the warm pool and an empty cache, streaming JSONL to a file.
type paperGrid struct {
	eng  *sweep.Engine
	spec *sweep.Spec
	pts  []sweep.Point
}

func (w *paperGrid) Setup(e *env) error {
	cache, err := newCache(e, "cache")
	if err != nil {
		return err
	}
	w.eng = &sweep.Engine{Cache: cache, Workers: e.workers, Pool: machine.NewPool()}
	w.spec = paperSpec(e.seed)
	w.pts, err = w.spec.Points()
	return err
}

func (w *paperGrid) Pass(e *env, chk *Checker) (*passOut, error) {
	f, jw, err := jsonlFile(e, "paper-grid")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rss := startRSS()
	start := time.Now()
	var werr error
	recs, _ := w.eng.Run(w.spec, func(r sweep.Record) {
		if err := jw.Write(r); err != nil && werr == nil {
			werr = err
		}
	})
	out := &passOut{wall: time.Since(start), rss: rss.Stop(), recs: recs, attempted: len(w.pts)}
	if werr != nil {
		return nil, werr
	}
	out.lat = []float64{ms(out.wall)} // the sweep is the request
	out.failed = chk.GridOrder("paper-grid", recs, w.pts)
	out.simulated(recs)
	out.engine = w.eng.Stats()
	out.pool = w.eng.Pool.Stats()
	return out, nil
}

func (w *paperGrid) Traced(e *env, chk *Checker) (*passOut, error) {
	cache, err := newCache(e, "trace-cache")
	if err != nil {
		return nil, err
	}
	rp := &Replay{Cache: cache, Pool: machine.NewPool(), Tr: e.tr}
	f, jw, err := jsonlFile(e, "paper-grid-traced")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	root := e.tr.Begin(spanPass, 0)
	recs, werr := replayGrid(e, rp, jw, root, w.pts)
	e.tr.Finish(root)
	out := &passOut{wall: time.Since(start), recs: recs, attempted: len(w.pts), replay: rp}
	if werr != nil {
		return nil, werr
	}
	out.failed = chk.GridOrder("paper-grid traced", recs, w.pts)
	out.simulated(recs)
	out.pool = rp.Pool.Stats()
	return out, nil
}

func (w *paperGrid) Close() {}

// replayGrid replays pts like Engine.Run: e.workers goroutines measure, and
// records are written as JSONL in grid order as each prefix completes.
func replayGrid(e *env, rp *Replay, jw *sweep.JSONLWriter, root int64, pts []sweep.Point) ([]sweep.Record, error) {
	recs := make([]sweep.Record, len(pts))
	ready := make([]chan struct{}, len(pts))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < e.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				recs[i] = rp.Measure(root, pts[i])
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
	var werr error
	for i := range pts {
		<-ready[i]
		e.tr.Do(spanJSONL, root, func() {
			if err := jw.Write(recs[i]); err != nil && werr == nil {
				werr = err
			}
		})
	}
	wg.Wait()
	return recs, werr
}

// ---- big-n ----

// bigN holds the paper-scale quickSort points on 64 crossbar cores, measured
// one at a time through Engine.Measure without a cache.
type bigN struct {
	eng *sweep.Engine
	pts []sweep.Point
}

// bigNSeeds is how many input seeds big-n measures per size. Big-n's cycle
// and message counts depend strongly on the input (quickSort's pivots), so
// each pass averages over several inputs per size to keep its totals steady
// from seed to seed.
var bigNSeeds = map[int]int{256: 4, 512: 2}

var bigNSizes = []int{256, 512}

func bigNPoints(seed uint64) []sweep.Point {
	var pts []sweep.Point
	for _, n := range bigNSizes {
		for i := 0; i < bigNSeeds[n]; i++ {
			pts = append(pts, sweep.Point{
				Kernel: quickSortID, Name: "comparisonSort/quickSort", N: n, Cores: 64,
				Topology: sweep.TopoCrossbar, Shortcut: true,
				Seed: deriveSeed(seed, uint64(n), uint64(i)),
			})
		}
	}
	return pts
}

func (w *bigN) Setup(e *env) error {
	w.eng = &sweep.Engine{Workers: e.workers, Pool: machine.NewPool()}
	w.pts = bigNPoints(e.seed)
	return nil
}

func (w *bigN) Pass(e *env, chk *Checker) (*passOut, error) {
	f, jw, err := jsonlFile(e, "big-n")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rss := startRSS()
	start := time.Now()
	recs := make([]sweep.Record, len(w.pts))
	var lat []float64
	for i, p := range w.pts {
		t := time.Now()
		recs[i] = w.eng.Measure(p)
		lat = append(lat, ms(time.Since(t)))
		if err := jw.Write(recs[i]); err != nil {
			return nil, err
		}
	}
	out := &passOut{wall: time.Since(start), rss: rss.Stop(), recs: recs, attempted: len(w.pts), lat: lat}
	out.failed = chk.GridOrder("big-n", recs, w.pts)
	out.simulated(recs)
	out.engine = w.eng.Stats()
	out.pool = w.eng.Pool.Stats()
	return out, nil
}

func (w *bigN) Traced(e *env, chk *Checker) (*passOut, error) {
	rp := &Replay{Pool: machine.NewPool(), Tr: e.tr}
	f, jw, err := jsonlFile(e, "big-n-traced")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	start := time.Now()
	root := e.tr.Begin(spanPass, 0)
	recs := make([]sweep.Record, len(w.pts))
	for i, p := range w.pts {
		recs[i] = rp.Measure(root, p)
		e.tr.Do(spanJSONL, root, func() { err = jw.Write(recs[i]) })
		if err != nil {
			return nil, err
		}
	}
	e.tr.Finish(root)
	out := &passOut{wall: time.Since(start), recs: recs, attempted: len(w.pts), replay: rp}
	out.failed = chk.GridOrder("big-n traced", recs, w.pts)
	out.simulated(recs)
	out.pool = rp.Pool.Stats()
	return out, nil
}

func (w *bigN) Close() {}

// ---- fabric-grid ----

// fabricGrid is a coordinator on a loopback listener with two workers, each
// with one engine worker and its own cache as on separate hosts, running the
// paper-scale slice and then the paper grid with the product's lease (5 s)
// and batch (8) defaults. Unlike `repro worker`, the workers run without the
// warm pool: no fabric-grid point shares a machine shape with an earlier
// point of the same worker, so the pool never hits, and the two in-process
// pools would park up to 64 machines (4.6 GiB peak RSS against 0.8 GiB
// without them, at the same wall time, on the 2-CPU reference host).
type fabricGrid struct {
	coord   *fabric.Coordinator
	hs      *http.Server
	served  chan error
	cancel  context.CancelFunc
	stopped sync.WaitGroup
	workers []*sweep.Engine
	rpc     *rpcTracer
	slice   *sweep.Spec
	grid    *sweep.Spec
}

// fabricWorkers is the fleet size.
const fabricWorkers = 2

// fabricSampleStride spaces the grid points fabric-grid re-measures on the
// engine path: the paper grid holds 30 points per kernel.
const fabricSampleStride = 30

func (w *fabricGrid) Setup(e *env) error {
	cache, err := newCache(e, "coord-cache")
	if err != nil {
		return err
	}
	w.coord = &fabric.Coordinator{
		Eng:      &sweep.Engine{Cache: cache, Workers: e.workers, Pool: machine.NewPool()},
		Cache:    cache,
		LeaseTTL: 5 * time.Second,
		Batch:    8,
		Log:      e.log,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.coord.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.rpc = &rpcTracer{base: http.DefaultTransport, tr: e.tr}
	for i := 0; i < fabricWorkers; i++ {
		wcache, err := newCache(e, fmt.Sprintf("worker%d-cache", i))
		if err != nil {
			return err
		}
		eng := &sweep.Engine{Cache: wcache, Workers: 1}
		w.workers = append(w.workers, eng)
		fw := &fabric.Worker{
			Coordinator: url, Eng: eng, Name: fmt.Sprintf("bench-%d", i), Log: e.log,
			Client: &http.Client{Transport: w.rpc},
		}
		w.stopped.Add(1)
		go func() {
			defer w.stopped.Done()
			_ = fw.Run(ctx) // returns ctx's error once Close cancels it
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for w.coord.Stats().Workers < fabricWorkers {
		if time.Now().After(deadline) {
			return errors.New("fabric-grid: workers did not register within 30s")
		}
		time.Sleep(time.Millisecond)
	}
	w.slice, w.grid = sliceSpec(e.seed), paperSpec(e.seed)
	return nil
}

func (w *fabricGrid) Pass(e *env, chk *Checker) (*passOut, error) {
	f, jw, err := jsonlFile(e, "fabric-grid")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rss := startRSS()
	start := time.Now()
	var recs []sweep.Record
	var werr error
	emit := func(r sweep.Record) {
		if err := jw.Write(r); err != nil && werr == nil {
			werr = err
		}
	}
	var pts []sweep.Point
	for _, spec := range []*sweep.Spec{w.slice, w.grid} {
		p, err := spec.Points()
		if err != nil {
			return nil, err
		}
		pts = append(pts, p...)
		id := e.tr.Begin(spanFabricRun, 0)
		rs, _ := w.coord.Run(spec, emit)
		e.tr.Finish(id)
		recs = append(recs, rs...)
	}
	out := &passOut{wall: time.Since(start), rss: rss.Stop(), recs: recs, attempted: len(pts)}
	out.lat = []float64{ms(out.wall)} // the slice and the grid together are the request
	if werr != nil {
		return nil, werr
	}
	out.failed = chk.GridOrder("fabric-grid", recs, pts)
	// The engine path's records for a sample of the grid, one point in
	// every fabricSampleStride (one per kernel), re-measured uncached.
	ref := &sweep.Engine{Workers: e.workers}
	for i := len(pts) - paperGridSize + int(e.seed%fabricSampleStride); i < len(pts); i += fabricSampleStride {
		chk.SameRecords(fmt.Sprintf("fabric-grid point %d", i), recs[i:i+1], []sweep.Record{ref.Measure(pts[i])})
	}
	out.simulated(recs)
	out.fabric = w.coord.Stats()
	for _, eng := range w.workers {
		out.engine = addStats(out.engine, eng.Stats())
	}
	return out, nil
}

func (w *fabricGrid) Traced(e *env, chk *Checker) (*passOut, error) { return w.Pass(e, chk) }

func (w *fabricGrid) Close() {
	if w.cancel != nil {
		w.cancel()
		w.stopped.Wait()
	}
	if w.hs != nil {
		// Close, not Shutdown: Shutdown waits up to 5 s for a connection a
		// worker opened but never used, and nothing here needs draining.
		_ = w.hs.Close()
		<-w.served
	}
}

func addStats(a, b sweep.Stats) sweep.Stats {
	a.Points += b.Points
	a.Hits += b.Hits
	a.Coalesced += b.Coalesced
	a.Simulated += b.Simulated
	a.Failures += b.Failures
	return a
}

// rpcTracer is the workers' transport: in traced runs it records a span per
// fabric RPC, client side.
type rpcTracer struct {
	base http.RoundTripper
	tr   *Tracer
}

func (t *rpcTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.tr.Begin("fabric.rpc "+req.URL.Path, 0)
	defer t.tr.Finish(id)
	return t.base.RoundTrip(req)
}
