package machine

import (
	"strings"
	"testing"
)

// TestPoolHitMissDrop pins the pool mechanics: a first Get constructs, a Put
// then Get under the same key returns the very same machine, and a full pool
// drops further Puts.
func TestPoolHitMissDrop(t *testing.T) {
	prog := mustSumFork(t, 40)
	cfg := DefaultConfig(4)
	p := &Pool{MaxIdle: 1}

	m1, err := p.Get("k", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.Get("k", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("two live Gets returned the same machine")
	}
	p.Put("k", m1)
	p.Put("k", m2) // over MaxIdle: dropped
	m3, err := p.Get("k", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 {
		t.Fatal("Get did not return the pooled machine")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Dropped != 1 {
		t.Fatalf("stats %+v, want 1 hit, 2 misses, 1 dropped", s)
	}
}

// TestPoolReArmsSchedulers: one pooled machine serves requests alternating
// between the idle-skip and dense schedulers (Dense is not part of the
// machine's shape), and each pooled run reproduces the fresh machine's
// result bit-identically.
func TestPoolReArmsSchedulers(t *testing.T) {
	prog := mustSumFork(t, 40)
	base := DefaultConfig(5)
	fresh, err := New(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run()
	if err != nil {
		t.Fatal(err)
	}

	dense := base
	dense.Dense = true
	p := NewPool()
	for _, cfg := range []Config{base, dense, base} {
		m, err := p.Get("sum40", prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.cfg.Dense != cfg.Dense {
			t.Fatalf("pooled machine not re-armed: have dense=%v, want dense=%v", m.cfg.Dense, cfg.Dense)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, "pooled run", want, got)
		p.Put("sum40", m)
	}
	if s := p.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits, 1 miss", s)
	}
}

// TestPoolKeyCollision: a key that maps to machines of different shapes is a
// key-derivation bug; Get must fail descriptively, not hand back the wrong
// machine.
func TestPoolKeyCollision(t *testing.T) {
	prog := mustSumFork(t, 40)
	p := NewPool()
	m, err := p.Get("k", prog, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	p.Put("k", m)
	_, err = p.Get("k", prog, DefaultConfig(8))
	if err == nil {
		t.Fatal("shape-mismatched Get succeeded")
	}
	if !strings.Contains(err.Error(), "collision") || !strings.Contains(err.Error(), "cores") {
		t.Fatalf("collision error %q does not name the mismatch", err)
	}
}
