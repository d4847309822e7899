package fuzzgen

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/minic"
)

// The native fuzz targets. Plain `go test` replays the committed corpus
// under testdata/fuzz/ plus the f.Add seeds below — so every CI run drives
// the corpus through all three substrates and the warm-Reset path; `go test
// -fuzz=<target>` explores new seeds from there.

// fuzzSeeds are the baseline corpus replayed on every plain `go test` run,
// in addition to the files under testdata/fuzz/.
var fuzzSeeds = []uint64{0, 1, 2, 3, 7, 42, 1337, 0xdeadbeef, 1 << 33, ^uint64(0)}

// FuzzTripleEquivalence drives a generated program through the full oracle:
// emulator vs idle-skip vs dense machine, plus warm-Reset and pool re-runs,
// bit-identical down to stage timestamps.
func FuzzTripleEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	o := &Oracle{}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := Generate(seed)
		if fail := o.CheckProgram(p); fail != nil {
			t.Fatalf("%v\nprogram:\n%s", fail, p.Source)
		}
	})
}

// FuzzResetReproduces hammers the warm-machine lifecycle specifically: one
// Machine re-run repeatedly through Reset, and through a Pool whose Get
// re-arms a different scheduler configuration each time, must reproduce the
// cold run exactly.
func FuzzResetReproduces(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := Generate(seed)
		prog, err := minic.Compile(p.Source, minic.ModeFork)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		cfg := machine.DefaultConfig(p.Cores)
		m, err := machine.New(prog, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cold, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: cold run: %v\n%s", seed, err, p.Source)
		}
		for i := 0; i < 3; i++ {
			m.Reset()
			warm, err := m.Run()
			if err != nil {
				t.Fatalf("seed %d: warm run %d: %v", seed, i, err)
			}
			if diff := diffResults(cold, warm); diff != "" {
				t.Fatalf("seed %d: warm-Reset run %d diverged: %s\n%s", seed, i, diff, p.Source)
			}
		}

		// Pool path: a hit re-arms Dense on the cached machine, so
		// alternating schedulers through one pooled machine must still match
		// a fresh run.
		pool := &machine.Pool{}
		const key = "fuzz-reset" // caller-chosen identity; checkPooled guards it
		for _, dense := range []bool{false, true, false} {
			c := cfg
			c.Dense = dense
			pm, err := pool.Get(key, prog, c)
			if err != nil {
				t.Fatalf("seed %d: pool get (dense=%v): %v", seed, dense, err)
			}
			got, err := pm.Run()
			if err != nil {
				t.Fatalf("seed %d: pooled run (dense=%v): %v", seed, dense, err)
			}
			pool.Put(key, pm)
			if diff := diffResults(cold, got); diff != "" {
				t.Fatalf("seed %d: pooled run (dense=%v) diverged: %s\n%s", seed, dense, diff, p.Source)
			}
		}
		if s := pool.Stats(); s.Misses != 1 || s.Hits != 2 {
			t.Fatalf("seed %d: pool stats %+v, want 1 miss + 2 hits", seed, s)
		}
	})
}
