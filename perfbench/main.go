// Command perfbench is the repository's end-to-end benchmark: it drives the
// sweep pipeline (pbbs → backend → machine/noc → sweep → server → fabric)
// from outside through its public API on four workloads, checks that every
// output is correct, and prints one JSON result line. See README.md.
//
//	perfbench -workload paper-grid -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/fabric"
	"repro/internal/machine"
	"repro/internal/sweep"
)

// DefaultSeed is the workload seed the golden totals are recorded for.
// HeldOutSeed is reserved for re-checking a claim made on other seeds; do
// not tune a change on it.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

// engineWorkers is the load bound: at most nproc (2 on the reference host)
// engine workers or client connections.
const engineWorkers = 2

// A run sets its workload up in fresh child processes and reports the
// median time. Each of its two probe rounds sets up at least
// minSetupProbes times, and more, up to maxSetupProbes, while the round
// has taken less than setupProbeBudget, so that millisecond set-ups get
// enough samples for a steady median.
const (
	minSetupProbes   = 5
	maxSetupProbes   = 25
	setupProbeBudget = time.Second
)

// env is one run's configuration.
type env struct {
	seed    uint64
	dir     string // fresh scratch directory of this run
	workers int
	tr      *Tracer // nil in untraced passes
	log     *slog.Logger
	// refs memoizes served-mix's engine-path reference records across the
	// run's passes, which submit the same sequence.
	refs map[mixStep][]sweep.Record
}

// passOut is what one timed pass produced.
type passOut struct {
	wall              time.Duration
	rss               float64 // MiB
	recs              []sweep.Record
	attempted, failed int
	lat               []float64 // ms
	simNs, simCycles  int64     // over records simulated in this pass
	engine            sweep.Stats
	pool              machine.PoolStats
	fabric            fabric.Stats
	replay            *Replay
	hit               *hitSplit // served-mix only
}

// workload is one benchmark workload. Setup builds a fresh stack, Pass times
// one cold pass over it, Traced replays the same work with spans, Close
// stops everything Setup started. A stack serves one pass.
type workload interface {
	Setup(e *env) error
	Pass(e *env, chk *Checker) (*passOut, error)
	Traced(e *env, chk *Checker) (*passOut, error)
	Close()
}

// workloads maps each workload's name to its constructor.
var workloads = map[string]func() workload{
	"paper-grid":  func() workload { return &paperGrid{} },
	"big-n":       func() workload { return &bigN{} },
	"served-mix":  func() workload { return &servedMix{} },
	"fabric-grid": func() workload { return &fabricGrid{} },
}

// nominalSeconds is about one pass's set-up, work and checks on the
// reference host (2 CPUs); a run makes max(1, seconds/nominal) passes, so a
// run's work is fixed by its arguments and its exact counts repeat.
var nominalSeconds = map[string]int{
	"paper-grid":  16,
	"big-n":       30,
	"served-mix":  12,
	"fabric-grid": 30,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-grid, big-n, served-mix or fabric-grid")
	seed := fs.Uint64("seed", DefaultSeed, "workload seed (the inputs derive from it)")
	seconds := fs.Int("seconds", 20, "measuring time; a run makes max(1, seconds/nominal) passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced run reporting per-layer metrics")
	work := fs.String("work", ".bench_build/work", "scratch directory for caches, JSONL, digests and traces")
	golden := fs.String("golden", "perfbench/golden.json", "exact default-seed totals to check against")
	record := fs.Bool("record-golden", false, "store this run's exact totals as the golden instead of checking them")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, print \"ready\", tear down (set-up probes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %d, trace %d)\n",
			*name, *seed, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, dir: dir, workers: engineWorkers,
		log:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		refs: map[mixStep][]sweep.Record{}}

	if *setupOnly {
		w := mk()
		err := w.Setup(e)
		if err == nil {
			fmt.Fprintln(stdout, "ready")
		}
		w.Close()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		return 0
	}

	r, err := measure(e, *name, mk, *work, *golden, *record, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// measure runs the set-up probes and the passes and assembles the result.
func measure(e *env, name string, mk func() workload, work, golden string, record bool,
	seconds int, traced bool, stderr io.Writer) (*result, error) {
	chk := &Checker{}
	// Set-up is probed before and after the passes, so that the median
	// spans the run instead of one moment of a shared host.
	var setups []float64
	probe := func() error {
		var spent time.Duration
		for i := 0; !traced && i < maxSetupProbes && (i < minSetupProbes || spent < setupProbeBudget); i++ {
			d, err := probeSetup(name, e.seed, work)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
			spent += d
		}
		return nil
	}
	if err := probe(); err != nil {
		return nil, err
	}

	passes := max(1, seconds/nominalSeconds[name])
	if traced {
		passes = 1
	}
	var outs []*passOut
	for i := 0; i < passes; i++ {
		out, err := onePass(e, mk, chk, false)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	if err := probe(); err != nil {
		return nil, err
	}
	var tout *passOut
	var tr *Tracer
	if traced {
		te := *e
		te.tr = NewTracer()
		tr = te.tr
		out, err := onePass(&te, mk, chk, true)
		if err != nil {
			return nil, err
		}
		tout = out
		if err := te.tr.Write(filepath.Join(work, name+"-trace.json")); err != nil {
			return nil, err
		}
		defer summarize(stderr, name, outs[0], tout, te.tr)
		outs = append(outs, tout)
	}

	// Exact outcomes: identical across this run's passes, across runs of the
	// same build and seed, and, at the default seed, equal to the golden
	// totals. fabric-grid ends with paper-grid's points.
	for _, o := range outs[1:] {
		chk.SameRecords(name+" repetition", o.recs, outs[0].recs)
	}
	build, err := buildID()
	if err != nil {
		return nil, err
	}
	digests := filepath.Join(work, "digests", build)
	if err := chk.Repeat(digests, fmt.Sprintf("%s-%d", name, e.seed), outs[0].recs); err != nil {
		return nil, err
	}
	if name == "paper-grid" || name == "fabric-grid" {
		recs := outs[0].recs
		grid := recs[len(recs)-paperGridSize:]
		if err := chk.Repeat(digests, fmt.Sprintf("grid-%d", e.seed), grid); err != nil {
			return nil, err
		}
	}
	switch {
	case record && e.seed == DefaultSeed && chk.OK():
		if err := recordGolden(golden, e.seed, name, outs[0].recs); err != nil {
			return nil, err
		}
	case record:
		return nil, errors.New("-record-golden needs the default seed and a correct run")
	case e.seed == DefaultSeed:
		g, err := readGolden(golden)
		if err != nil {
			return nil, err
		}
		chk.Golden(g, name, outs[0].recs)
	}

	r := &result{}
	for _, o := range outs {
		r.Attempted += o.attempted
		r.Failed += o.failed
	}
	for _, p := range chk.Problems {
		fmt.Fprintln(stderr, "perfbench: FAIL:", p)
	}
	r.Correct = chk.OK() && r.Failed == 0
	if traced {
		r.Metrics = layerMetrics(outs[0], tout, tr)
		return r, nil
	}
	for i, o := range outs {
		fmt.Fprintf(stderr, "perfbench: %s pass %d: wall %.3fs; engine %v; pool %+v; fabric %+v\n",
			name, i, o.wall.Seconds(), o.engine, o.pool, o.fabric)
	}
	r.Metrics = endToEnd(outs, median(setups))
	return r, nil
}

// buildID names this build of the benchmark by its executable's content,
// so digests recorded by one build are only compared with the same build.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// onePass sets up a fresh stack, times one pass on it and tears it down.
func onePass(e *env, mk func() workload, chk *Checker, traced bool) (*passOut, error) {
	w := mk()
	defer w.Close()
	if err := w.Setup(e); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if traced {
		return w.Traced(e, chk)
	}
	return w.Pass(e, chk)
}

// probeSetup times one set-up in a fresh child process, from its start to
// its "ready" line: process start, package initialisation and the
// workload's set-up.
func probeSetup(name string, seed uint64, work string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10), "-work", work)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("setup probe: no ready line (%q, %v)", line, rerr)
	}
	return d, nil
}

// endToEnd assembles the end-to-end metrics from untraced passes.
func endToEnd(outs []*passOut, setup float64) map[string]metric {
	var walls, lat []float64
	var simNs, simCycles int64
	for _, o := range outs {
		walls = append(walls, o.wall.Seconds())
		lat = append(lat, o.lat...)
		simNs += o.simNs
		simCycles += o.simCycles
	}
	cycles, noc := totals(outs[0].recs)
	return map[string]metric{
		"wall_s":         {median(walls), "s"},
		"setup_s":        {setup, "s"},
		"ns_per_cycle":   {ratio(float64(simNs), float64(simCycles)), "ns"},
		"latency_p50_ms": {percentile(lat, 50), "ms"},
		"latency_p90_ms": {percentile(lat, 90), "ms"},
		"sim_cycles":     {float64(cycles), "cycles"},
		"noc_msgs":       {float64(noc), "msgs"},
	}
}

// layerMetrics assembles the per-layer metrics of a traced run: span self
// times from the traced pass, exact machine counters from its replay (or
// from its records where the workload has no replay), the engine, pool,
// server and fabric counters, and the untraced pass's peak RSS.
func layerMetrics(plain, tp *passOut, tr *Tracer) map[string]metric {
	self := tr.SelfTimes()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	msOf := func(span string) float64 { return self[span].MeanMS() }

	put("pbbs.build_ms", msOf(spanBuild), "ms")
	put("pbbs.gen_ms", msOf(spanGen), "ms")
	put("pbbs.ref_ms", msOf(spanRef), "ms")
	put("backend.inject_ms", msOf(spanInject), "ms")
	put("machine.new_ms", msOf(spanNew), "ms")
	put("machine.run_ms", msOf(spanRun), "ms")
	put("sweep.cache_get_ms", msOf(spanGet), "ms")
	put("sweep.cache_put_ms", msOf(spanPut), "ms")
	put("sweep.jsonl_ms", msOf(spanJSONL), "ms")
	put("server.submit_ms", msOf(spanSubmit), "ms")
	put("server.queue_ms", msOf(spanQueue), "ms")
	put("server.exec_ms", msOf(spanExec), "ms")
	put("server.stream_ms", msOf(spanStream), "ms")
	key := 0.0
	if h := tp.hit; h != nil && h.n > 0 {
		key = ms(h.measure-h.build-h.gen-h.get) / float64(h.n)
	}
	put("sweep.key_ms", key, "ms")

	var s SimStats
	if tp.replay != nil {
		s = tp.replay.Sim
	} else {
		s = recordStats(tp.recs)
	}
	put("machine.ns_per_cycle", ratio(float64(s.SimNs), float64(s.Cycles)), "ns")
	put("machine.ns_per_cycle_growth", nsPerCycleGrowth(s.ByN), "ratio")
	put("machine.cycles", float64(s.Cycles), "cycles")
	put("machine.instructions", float64(s.Instructions), "count")
	put("machine.sections", float64(s.Sections), "count")
	put("machine.fetch_ipc", ratio(float64(s.Instructions), float64(s.FetchDone)), "ipc")
	put("machine.retire_ipc", ratio(float64(s.Instructions), float64(s.RetireDone)), "ipc")
	put("machine.fetch_imbalance", ratio(s.Imbalance, float64(s.Points)), "ratio")
	put("machine.wait_rename", ratio(float64(s.WaitRename), float64(s.NRename)), "cycles")
	put("machine.wait_issue", ratio(float64(s.WaitIssue), float64(s.NIssue)), "cycles")
	put("machine.wait_mem", ratio(float64(s.WaitMem), float64(s.NMem)), "cycles")
	put("machine.wait_retire", ratio(float64(s.WaitRet), float64(s.NRet)), "cycles")
	put("machine.reg_requests", float64(s.RegRequests), "count")
	put("machine.mem_requests", float64(s.MemRequests), "count")
	put("machine.dmh_answers", float64(s.DMHAnswers), "count")
	put("noc.create_msgs", float64(s.CreateMsgs), "msgs")
	put("noc.request_hops", float64(s.RequestHops), "msgs")
	put("noc.response_msgs", float64(s.ResponseMsgs), "msgs")

	put("machine.pool_hit_ratio", ratio(float64(tp.pool.Hits), float64(tp.pool.Hits+tp.pool.Misses)), "ratio")
	eng := tp.engine
	put("sweep.cache_hit_ratio", ratio(float64(eng.Hits), float64(eng.Points)), "ratio")
	put("sweep.coalesced", float64(eng.Coalesced), "count")

	f := tp.fabric
	put("fabric.leases", float64(f.Granted), "count")
	put("fabric.expired", float64(f.Expired), "count")
	put("fabric.duplicates", float64(f.Duplicates), "count")
	put("fabric.local_points", float64(f.LocalPoints), "count")
	put("fabric.accept_ratio", ratio(float64(f.Accepted), float64(f.Accepted+f.Duplicates)), "ratio")
	put("fabric.points_per_lease", ratio(float64(f.Accepted), float64(f.Granted)), "count")

	put("trace.overhead_s", tp.wall.Seconds()-plain.wall.Seconds(), "s")
	put("peak_rss_mb", plain.rss, "MiB")
	return m
}

// recordStats derives the record-level machine counters of workloads whose
// points are measured out of the benchmark's reach (fabric workers).
func recordStats(recs []sweep.Record) SimStats {
	var s SimStats
	s.ByN = make(map[int][2]int64)
	for _, r := range recs {
		s.Points++
		s.SimNs += r.SimNs
		s.Cycles += r.Cycles
		s.Instructions += r.Instructions
		s.Sections += int64(r.Sections)
		s.FetchDone += r.FetchCycles
		s.RetireDone += r.RetireCycles
		s.RegRequests += r.RegRequests
		s.MemRequests += r.MemRequests
		s.DMHAnswers += r.DMHAnswers
		s.CreateMsgs += r.CreateMessages
		s.RequestHops += r.RequestHops
		s.ResponseMsgs += r.ResponseMessages
		v := s.ByN[r.N]
		s.ByN[r.N] = [2]int64{v[0] + r.SimNs, v[1] + r.Cycles}
	}
	return s
}

// nsPerCycleGrowth is host ns per simulated cycle at the largest dataset
// size over that at the smallest: 1 when ns/cycle does not grow with n.
func nsPerCycleGrowth(byN map[int][2]int64) float64 {
	if len(byN) == 0 {
		return 0
	}
	ns := make([]int, 0, len(byN))
	for n := range byN {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	at := func(n int) float64 { return ratio(float64(byN[n][0]), float64(byN[n][1])) }
	return ratio(at(ns[len(ns)-1]), at(ns[0]))
}

// summarize prints the traced run's derived figures for humans (stderr).
func summarize(w io.Writer, name string, plain, tp *passOut, tr *Tracer) {
	fmt.Fprintf(w, "perfbench: %s traced: wall %.3fs untraced %.3fs\n", name, tp.wall.Seconds(), plain.wall.Seconds())
	self := tr.SelfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := self[n]
		fmt.Fprintf(w, "  %-32s calls %6d  self %10.3f ms  mean %9.4f ms\n", n, lt.Calls, ms(lt.Self), lt.MeanMS())
	}
	if tp.replay != nil {
		s := tp.replay.Sim
		ns := make([]int, 0, len(s.ByN))
		for n := range s.ByN {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		for _, n := range ns {
			v := s.ByN[n]
			fmt.Fprintf(w, "  machine ns/cycle at n=%d: %.1f\n", n, ratio(float64(v[0]), float64(v[1])))
		}
		if ref := self[spanRef]; ref.Calls > 0 {
			fmt.Fprintf(w, "  pbbs.Ref share of traced wall: %.4f%%\n", 100*ratio(float64(ref.Self), float64(tp.wall)))
		}
	}
	if h := tp.hit; h != nil && h.n > 0 {
		per := func(d time.Duration) float64 { return ms(d) / float64(h.n) }
		fmt.Fprintf(w, "  cache-hit split over %d points (ms/point): Measure %.4f = build %.4f + gen %.4f + get %.4f + key/rest %.4f\n",
			h.n, per(h.measure), per(h.build), per(h.gen), per(h.get), per(h.measure-h.build-h.gen-h.get))
	}
	if n := len(plain.lat); n > 0 {
		if p, ok := tailPercentile(n); ok {
			fmt.Fprintf(w, "  latency over %d samples: p50 %.3f ms; p%g (highest with >=10 samples beyond) %.3f ms\n",
				n, percentile(plain.lat, 50), p, percentile(plain.lat, p))
		} else {
			fmt.Fprintf(w, "  latency over %d samples: p50 %.3f ms; no percentile has 10 samples beyond it\n",
				n, percentile(plain.lat, 50))
		}
	}
	fmt.Fprintf(w, "  pool %+v engine %+v fabric %+v\n", tp.pool, tp.engine, tp.fabric)
}
