package machine

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// The concurrent pool tests drive Get/Put from many goroutines — the shape
// the fuzz oracle and the sweep engine's worker pool impose — and are run
// under -race in CI, so the pool's locking discipline is checked on the
// exact paths the sequential tests in warmpool_test.go pin functionally:
// hit/miss accounting, MaxIdle drops, and key-collision detection.

// TestPoolConcurrentGetPut: goroutines hammer one key with re-armed
// scheduler variants. Every Get must succeed (same shape throughout), come
// back armed as requested, and reproduce the reference run bit-identically;
// the MaxIdle bound and the stats arithmetic must hold at every moment.
func TestPoolConcurrentGetPut(t *testing.T) {
	prog := mustSumFork(t, 40)
	base := DefaultConfig(4)
	fresh, err := New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	const maxIdle = 2
	p := &Pool{MaxIdle: maxIdle}
	var gets, puts atomic.Int64
	variants := []Config{base, base}
	variants[1].Dense = true

	const workers = 8
	iters := 6
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				cfg := variants[(w+i)%len(variants)]
				m, err := p.Get("k", prog, cfg)
				gets.Add(1)
				if err != nil {
					t.Errorf("worker %d: Get: %v", w, err)
					return
				}
				if m.cfg.Dense != cfg.Dense {
					t.Errorf("worker %d: machine not re-armed: dense=%v", w, m.cfg.Dense)
				}
				got, err := m.Run()
				if err != nil {
					t.Errorf("worker %d: Run: %v", w, err)
					return
				}
				checkIdentical(t, "concurrent pooled run", want, got)
				p.Put("k", m)
				puts.Add(1)
			}
		}(w)
	}
	wg.Wait()

	s := p.Stats()
	if s.Hits+s.Misses != gets.Load() {
		t.Errorf("stats %+v: hits+misses != %d gets", s, gets.Load())
	}
	if s.Dropped > puts.Load() {
		t.Errorf("stats %+v: more drops than %d puts", s, puts.Load())
	}
	t.Logf("concurrent phase: %+v", s)
	// Deterministically exercise the MaxIdle drop path: empty the parking
	// slots, then park one machine more than fits.
	held := make([]*Machine, 0, maxIdle+1)
	preDrop := s.Dropped
	for i := 0; i < maxIdle+1; i++ {
		m, err := p.Get("k", prog, base)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, m)
	}
	for _, m := range held {
		p.Put("k", m)
	}
	if p.Stats().Dropped == preDrop {
		t.Errorf("parking %d machines over MaxIdle=%d dropped nothing", maxIdle+1, maxIdle)
	}
	// At most maxIdle machines survived the run: a fresh burst of Gets can
	// hit at most that many times.
	before := p.Stats().Hits
	for i := 0; i < maxIdle+2; i++ {
		if _, err := p.Get("k", prog, base); err != nil {
			t.Fatalf("drain get %d: %v", i, err)
		}
	}
	if hits := p.Stats().Hits - before; hits > maxIdle {
		t.Errorf("%d hits on drain, want <= %d parked machines", hits, maxIdle)
	}
}

// TestPoolConcurrentCollision: when racing Gets present different shapes
// under one key, pooled handoffs must either construct fresh (miss) or fail
// loudly with the collision diagnostic — never return a wrong-shape machine.
func TestPoolConcurrentCollision(t *testing.T) {
	prog := mustSumFork(t, 40)
	cfgs := []Config{DefaultConfig(4), DefaultConfig(8)}
	p := NewPool()
	var collisions atomic.Int64

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				cfg := cfgs[(w+i)%2]
				m, err := p.Get("shared", prog, cfg)
				if err != nil {
					if !strings.Contains(err.Error(), "collision") {
						t.Errorf("worker %d: unexpected Get error: %v", w, err)
					}
					collisions.Add(1)
					continue
				}
				if m.cfg.Cores != cfg.Cores {
					t.Errorf("worker %d: got %d-core machine, want %d", w, m.cfg.Cores, cfg.Cores)
				}
				p.Put("shared", m)
			}
		}(w)
	}
	wg.Wait()
	t.Logf("%d collisions across racing mixed-shape Gets", collisions.Load())

	// The racing phase above may or may not interleave into a collision;
	// pin the detection itself deterministically on a fresh key.
	m, err := p.Get("det", prog, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Put("det", m)
	if _, err := p.Get("det", prog, cfgs[1]); err == nil ||
		!strings.Contains(err.Error(), "collision") {
		t.Errorf("mixed-shape handoff = %v, want collision error", err)
	}
}
