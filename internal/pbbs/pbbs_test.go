package pbbs

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/gofront"
	"repro/internal/minic"
)

func TestRegistryCompleteness(t *testing.T) {
	ks := Kernels()
	if len(ks) != 11 {
		t.Fatalf("registry has %d kernels, want 11 (the paper's ten plus histogram)", len(ks))
	}
	for i, k := range ks {
		if k.ID != i+1 {
			t.Errorf("kernel %d has ID %d, want %d (paper order)", i, k.ID, i+1)
		}
		if !strings.Contains(k.Name, "/") {
			t.Errorf("kernel %d name %q is not suite/implementation", k.ID, k.Name)
		}
	}
	if _, err := ByID(3); err != nil {
		t.Error(err)
	}
	if _, err := ByID(12); err == nil {
		t.Error("ByID(12) should fail")
	}
}

// TestAllKernelsOnEmulator is the core Fig. 7 prerequisite: every kernel
// compiles in both modes, runs on the emulator, and matches its pure-Go
// reference checksum at several sizes and seeds.
func TestAllKernelsOnEmulator(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			for _, n := range []int{k.MinN, 16, 48, 96} {
				for _, seed := range []uint64{1, 42} {
					res, err := k.Run(n, seed, false)
					if err != nil {
						t.Fatalf("n=%d seed=%d: %v", n, seed, err)
					}
					if res.Checksum != res.Expected {
						t.Fatalf("n=%d seed=%d: checksum %d != %d", n, seed, res.Checksum, res.Expected)
					}
					if res.Steps <= 0 {
						t.Errorf("n=%d: no instructions executed", n)
					}
				}
			}
			// Fork mode must also compile (the machine's convention).
			if _, err := k.Build(16, minic.ModeFork); err != nil {
				t.Errorf("fork-mode build: %v", err)
			}
		})
	}
}

// TestKernelsCrossValidateOnMachine runs a representative subset (recursive,
// loop-heavy, and hash-probing kernels) on the cycle-level many-core machine
// and checks rax and full data-segment agreement with the emulator.
func TestKernelsCrossValidateOnMachine(t *testing.T) {
	cases := []struct {
		id    int
		n     int
		cores int
	}{
		{2, 12, 8}, // quickSort: deep fork recursion, many sections
		{3, 10, 4}, // quickHull: recursive with global accumulator
		{5, 8, 2},  // blockRadixSort: single long section, heavy memory renaming
		{10, 8, 2}, // removeDuplicates: data-dependent probe loops
	}
	for _, c := range cases {
		k, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := k.CrossValidate(c.n, 7, c.cores)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		if rm.Cycles <= 0 || rm.Instructions <= 0 {
			t.Errorf("%s: empty machine result %+v", k.Name, rm)
		}
	}
}

func TestMeasureILPSanity(t *testing.T) {
	k, err := ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.MeasureILP(48, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Instructions <= 0 {
		t.Fatal("empty trace")
	}
	if p.SeqILP <= 0 || p.ParILP <= 0 {
		t.Fatalf("non-positive ILP: %+v", p)
	}
	// The parallel model drops strictly more dependences than the
	// sequential one, so its ILP can never be lower.
	if p.ParILP < p.SeqILP {
		t.Errorf("parallel ILP %.2f < sequential ILP %.2f", p.ParILP, p.SeqILP)
	}
}

func TestMeasureAllWorkerPool(t *testing.T) {
	ks := Kernels()
	sizes := []int{16, 32}
	points, err := MeasureAll(ks, sizes, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ks)*len(sizes) {
		t.Fatalf("%d points, want %d", len(points), len(ks)*len(sizes))
	}
	// Sorted by (ID, N) and complete.
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		if a.Kernel.ID > b.Kernel.ID || (a.Kernel.ID == b.Kernel.ID && a.N >= b.N) {
			t.Errorf("points not sorted at %d: (%d,%d) then (%d,%d)", i, a.Kernel.ID, a.N, b.Kernel.ID, b.N)
		}
	}
	tbl := Fig7Table(points)
	for _, k := range ks {
		if !strings.Contains(tbl, k.Name) {
			t.Errorf("Fig7 table missing %s", k.Name)
		}
	}
}

// TestDeterministicInputs: the same (n, seed) must generate identical inputs
// so measurements are reproducible.
func TestDeterministicInputs(t *testing.T) {
	for _, k := range Kernels() {
		a := k.Gen(32, 9)
		b := k.Gen(32, 9)
		if len(a) == 0 {
			t.Errorf("%s: no inputs", k.Name)
		}
		for sym, wa := range a {
			wb, ok := b[sym]
			if !ok || len(wa) != len(wb) {
				t.Fatalf("%s: inputs differ in symbol %q", k.Name, sym)
			}
			for i := range wa {
				if wa[i] != wb[i] {
					t.Fatalf("%s: %s[%d] differs between identical generations", k.Name, sym, i)
				}
			}
		}
	}
}

// TestGenMatchesArrayAnnotations: every array an input generator fills is a
// declared //repro:array of its kernel, at exactly the annotated length, so
// a generator and its kernel file cannot disagree on the input layout.
func TestGenMatchesArrayAnnotations(t *testing.T) {
	for _, k := range Kernels() {
		for _, n := range []int{k.MinN, 64} {
			for sym, words := range k.Gen(n, 1) {
				i := slices.IndexFunc(k.Arrays, func(a gofront.Array) bool { return a.Name == sym })
				if i < 0 {
					t.Errorf("%s (inputs=%s) at n=%d: generated %q is not a //repro:array", k.Name, k.Inputs, n, sym)
					continue
				}
				want, err := k.Arrays[i].Len.Eval(n)
				if err != nil {
					t.Fatal(err)
				}
				if int64(len(words)) != want {
					t.Errorf("%s (inputs=%s) at n=%d: %s has %d words, annotation len=%s is %d",
						k.Name, k.Inputs, n, sym, len(words), k.Arrays[i].Len, want)
				}
			}
		}
	}
}

// TestUnknownInputsRejected: a kernel whose inputs= names no generator, or
// that names none, fails registration.
func TestUnknownInputsRejected(t *testing.T) {
	for _, ann := range []string{" inputs=nosuch", ""} {
		src := "package kernels\n\n//repro:kernel id=99 name=test/bad minn=2" + ann + "\nfunc f() uint64 {\n\treturn 0\n}\n"
		gk, err := gofront.Scan("bad.go", []byte(src))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newKernel(gk); err == nil || !strings.Contains(err.Error(), "bad.go: unknown inputs=") {
			t.Errorf("newKernel(%q) err = %v, want an unknown-inputs error", ann, err)
		}
	}
}

// TestSeedChangesChecksum: different seeds must change the workload (and so
// the checksum) — guards against generators ignoring the seed.
func TestSeedChangesChecksum(t *testing.T) {
	for _, k := range Kernels() {
		r1, err := k.Run(32, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := k.Run(32, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Checksum == r2.Checksum {
			t.Errorf("%s: checksum identical across seeds (%d)", k.Name, r1.Checksum)
		}
	}
}

func TestClampToMinN(t *testing.T) {
	k, err := ByID(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Run(0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != k.MinN {
		t.Errorf("n clamped to %d, want %d", res.N, k.MinN)
	}
}

func TestRunOnReportsBackend(t *testing.T) {
	k, err := ByID(10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.RunOn(backend.NewEmulator(), 16, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Backend != "emu" {
		t.Errorf("backend = %q", res.Backend)
	}
}

func TestFindSelectors(t *testing.T) {
	if k, err := Find("2"); err != nil || k.ID != 2 {
		t.Errorf("Find(\"2\") = %v, %v", k, err)
	}
	if k, err := Find("quicksort"); err != nil || k.ID != 2 {
		t.Errorf("Find(\"quicksort\") = %v, %v", k, err)
	}
	if _, err := Find("deterministicHash"); err == nil {
		t.Error("Find did not flag an ambiguous selector")
	}
	if _, err := Find("nosuchkernel"); err == nil {
		t.Error("Find accepted an unknown selector")
	}
	// An empty selector would match every name; it must be rejected as
	// empty, not reported as ambiguous.
	for _, sels := range []string{"quicksort,", "quicksort,,bfs", " , "} {
		if _, err := FindAll(sels); err == nil || !strings.Contains(err.Error(), "empty kernel selector") {
			t.Errorf("FindAll(%q) err = %v, want an empty-selector error", sels, err)
		}
	}
	if _, err := Find(""); err == nil || strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("Find(\"\") err = %v, want an empty-selector error", err)
	}
	all, err := FindAll("all")
	if err != nil || len(all) != len(Kernels()) {
		t.Errorf("FindAll(\"all\") = %d kernels, %v", len(all), err)
	}
	two, err := FindAll("quicksort,bfs")
	if err != nil || len(two) != 2 || two[0].ID != 1 || two[1].ID != 2 {
		t.Errorf("FindAll(\"quicksort,bfs\") = %v, %v", two, err)
	}
	if dup, err := FindAll("2,quicksort"); err != nil || len(dup) != 1 {
		t.Errorf("FindAll did not dedup: %v, %v", dup, err)
	}
}
