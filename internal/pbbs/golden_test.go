package pbbs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/minic"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden mini-C files under testdata/golden and the Fig. 7 golden")

// goldenName is the golden file for one kernel at one dataset size. Two
// kernels share the "deterministicHash" short name; the ID prefix keeps the
// files distinct.
func goldenName(k *Kernel, n int) string {
	short := k.Name
	if i := strings.IndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	return filepath.Join("testdata", "golden", fmt.Sprintf("%02d-%s-n%d.c", k.ID, short, n))
}

// canonical returns the kernel's source at n after checking that it is
// canonical: the lowering must emit exactly what minic.Format renders from
// its parse (the Format∘Parse fixpoint).
func canonical(t *testing.T, k *Kernel, n int) string {
	t.Helper()
	src, err := k.Source(n)
	if err != nil {
		t.Fatalf("%s: Source(%d): %v", k.Name, n, err)
	}
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("%s: parsing Source(%d): %v", k.Name, n, err)
	}
	if minic.Format(prog) != src {
		t.Errorf("%s: lowered source at n=%d is not Format-canonical", k.Name, n)
	}
	return src
}

// TestGoldenSources pins every registered kernel's generated mini-C, in
// canonical form, at n=MinN and n=64. The files were generated from the
// hand-written mini-C templates the kernels had before they became annotated
// Go, and every kernel lowers to them byte for byte, so a diff here means the
// compiled program changed — which would silently re-key the sweep cache and
// detach BENCH_machine.json baselines. Run with -update to rewrite them
// deliberately.
func TestGoldenSources(t *testing.T) {
	for _, k := range Kernels() {
		for _, n := range []int{k.MinN, 64} {
			path := goldenName(k, n)
			got := canonical(t, k, n)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatalf("writing %s: %v", path, err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update to create)", k.Name, err)
			}
			if got != string(want) {
				t.Errorf("%s at n=%d: generated mini-C drifted from %s\n--- golden\n%s\n--- generated\n%s",
					k.Name, n, path, want, got)
			}
		}
	}
}

// fig7Golden is the Fig. 7 table of every kernel at n=24 with seed 1.
const fig7Golden = "testdata/fig7-n24-seed1.txt"

// TestFig7Golden pins the paper's Fig. 7 numbers byte for byte: the trace
// length and the sequential and parallel ILP of every kernel at n=24 with
// seed 1. The ILP models read the dependence sets the isa operand queries
// report for each traced instruction, so a change to those queries that
// alters any dependence shows up here. Run with -update to rewrite it.
func TestFig7Golden(t *testing.T) {
	points, err := MeasureAll(Kernels(), []int{24}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := Fig7Table(points)
	if *updateGolden {
		if err := os.WriteFile(fig7Golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fig7Golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("Fig. 7 table drifted from %s\n--- golden\n%s--- now\n%s", fig7Golden, want, got)
	}
}
