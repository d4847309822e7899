package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sweep"
)

func testCache(t *testing.T) *sweep.Cache {
	t.Helper()
	c, err := sweep.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The traced replay must stay a faithful copy of Engine.Measure: the same
// timing-stripped record (content key included) on a miss, a pool hit and a
// cache hit, across kernels, sizes (one clamped), core counts, topologies,
// shortcut settings and a placement cap.
func TestReplayMatchesMeasure(t *testing.T) {
	pts := []sweep.Point{
		{Kernel: 2, N: 16, Cores: 4, Topology: sweep.TopoMesh, Shortcut: true, Seed: 3},
		{Kernel: 4, N: 16, Cores: 1, Topology: sweep.TopoCrossbar, Seed: 5},
		{Kernel: 8, N: 8, Cores: 8, Topology: sweep.TopoRing, Shortcut: true, Seed: 7},
		{Kernel: 10, N: 24, Cores: 2, Topology: sweep.TopoCrossbar, Shortcut: true, Seed: 9},
		{Kernel: 11, N: 1, Cores: 16, Topology: sweep.TopoMesh, MaxSections: 2, Seed: 11},
		{Kernel: 2, N: 16, Cores: 4, Topology: sweep.TopoMesh, Shortcut: true, Seed: 4},
	}
	eng := &sweep.Engine{Cache: testCache(t), Pool: machine.NewPool()}
	rp := &Replay{Cache: testCache(t), Pool: machine.NewPool(), Tr: NewTracer()}
	var cycles int64
	for _, p := range pts {
		want := eng.Measure(p)
		if want.Err != "" {
			t.Fatalf("%+v: engine: %s", p, want.Err)
		}
		if got := rp.Measure(0, p); strip(got) != strip(want) {
			t.Errorf("%+v: replay\n%+v\nengine\n%+v", p, strip(got), strip(want))
		}
		hit := (&Replay{Cache: eng.Cache}).Measure(0, p)
		if strip(hit) != strip(want) {
			t.Errorf("%+v: replay over the engine's cache\n%+v\nwant\n%+v", p, strip(hit), strip(want))
		}
		cycles += want.Cycles
	}
	if want := eng.Pool.Stats(); rp.Pool.Stats() != want || want.Hits != 1 {
		t.Errorf("replay pool %+v, engine pool %+v (want one hit each)", rp.Pool.Stats(), want)
	}
	if rp.Sim.Points != len(pts) || rp.Sim.Cycles != cycles {
		t.Errorf("replay sim stats: %d points %d cycles, want %d / %d", rp.Sim.Points, rp.Sim.Cycles, len(pts), cycles)
	}
	self := rp.Tr.SelfTimes()
	for _, span := range []string{spanPoint, spanBuild, spanGen, spanGet, spanNew, spanInject, spanRun, spanRef, spanPut} {
		if self[span].Calls != len(pts) {
			t.Errorf("%s: %d spans, want %d", span, self[span].Calls, len(pts))
		}
	}
}

func TestMixSequenceDeterministic(t *testing.T) {
	a, b := mixSequence(7), mixSequence(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different sequences")
	}
	if reflect.DeepEqual(a, mixSequence(8)) {
		t.Fatal("different seeds, same sequence")
	}
	kinds := map[mixKind]int{}
	seeds := map[uint64]mixKind{}
	jobs := 0
	for _, s := range a {
		kinds[s.Kind]++
		jobs += 1 + boolInt(s.Kind == mixPair)
		if s.Kind == mixRead {
			if s.Seed != baseSeed(7, s.Template) {
				t.Errorf("read of template %d at seed %d, not its base seed", s.Template, s.Seed)
			}
			continue
		}
		if k, dup := seeds[s.Seed]; dup || s.Seed == baseSeed(7, s.Template) {
			t.Errorf("%s step reuses seed %d (of a %s step)", s.Kind, s.Seed, k)
		}
		seeds[s.Seed] = s.Kind
	}
	n := len(a)
	if kinds[mixRead]*10 != 7*n || kinds[mixCold]*10 != 2*n || kinds[mixPair]*10 != n {
		t.Errorf("mix %v of %d steps, want 70/20/10%%", kinds, n)
	}
	if jobs < 100 {
		t.Errorf("%d jobs, want at least 100", jobs)
	}
}

// loop must hand both submissions of a pair step to the two clients at the
// same time: each waits here for the other.
func TestLoopSubmitsPairsTogether(t *testing.T) {
	steps := []mixStep{{mixRead, 0, 1}, {mixPair, 1, 2}, {mixCold, 2, 3}, {mixPair, 3, 4}}
	var mu sync.Mutex
	arrived := map[int]chan struct{}{}
	out := loop(steps, func(step, slot int, st mixStep) jobOut {
		if st.Kind != mixPair {
			return jobOut{latency: time.Duration(step)}
		}
		mu.Lock()
		ch, ok := arrived[step]
		if !ok {
			ch = make(chan struct{})
			arrived[step] = ch
		} else {
			close(ch)
		}
		mu.Unlock()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			return jobOut{err: errTimeout}
		}
		return jobOut{latency: time.Duration(step)}
	})
	for i, jobs := range out {
		if len(jobs) != 1+boolInt(steps[i].Kind == mixPair) {
			t.Errorf("step %d: %d jobs", i, len(jobs))
		}
		for _, j := range jobs {
			if j.err != nil || j.latency != time.Duration(i) {
				t.Errorf("step %d: %+v", i, j)
			}
		}
	}
}

type timeoutError struct{}

func (timeoutError) Error() string { return "pair partner never arrived" }

var errTimeout = timeoutError{}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		isOK bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.isOK {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", tc.n, p, ok, tc.p, tc.isOK)
		}
		if ok && tc.n-rankOf(tc.n, p) < 10 {
			t.Errorf("n=%d p%g leaves %d samples beyond", tc.n, p, tc.n-rankOf(tc.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if median(s) != 5.5 {
		t.Errorf("median = %g", median(s))
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := NewTracer()
	tr.spans = []Span{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "child", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "child", Start: 7, End: 12},
	}
	self := tr.SelfTimes()
	if got := self["parent"]; got.Calls != 1 || got.Self != 3 {
		t.Errorf("parent self %+v, want 3 over 1 call", got)
	}
	if got := self["child"]; got.Calls != 3 || got.Self != 2+3+5 {
		t.Errorf("child self %+v, want 10 over 3 calls", got)
	}
}
