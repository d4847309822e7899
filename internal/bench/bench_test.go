package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pbbs"
)

// TestCrossCheckAllKernels is the acceptance cross-check: on every
// registered kernel the idle-skip and dense schedulers must produce
// identical cycles, instruction counts and NoC message totals — Measure
// errors out on any divergence, so a nil error here is the proof.
func TestCrossCheckAllKernels(t *testing.T) {
	want := len(pbbs.Kernels())
	if want < 11 {
		t.Fatalf("registry has %d kernels, want at least the ten of Table 1 plus histogram", want)
	}
	rep, err := Measure(Grid{Kernels: []string{"all"}, N: 12, Cores: []int{7}, Seed: 1, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != want {
		t.Fatalf("measured %d points, want %d", len(rep.Points), want)
	}
	for _, p := range rep.Points {
		if p.Cycles <= 0 || p.Instructions <= 0 || p.DenseNs <= 0 || p.IdleSkipNs <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Kernel, p)
		}
		if p.Speedup <= 0 {
			t.Errorf("%s: non-positive speedup %v", p.Kernel, p.Speedup)
		}
	}
}

func TestReportRoundTripAndTable(t *testing.T) {
	rep, err := Measure(QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.Speedup <= 0 || rep.DenseNsPerCycle <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
	path := filepath.Join(t.TempDir(), "BENCH_machine.json")
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Error("report did not survive the Write/Load round trip")
	}
	tbl := rep.Table()
	for _, want := range []string{"deterministicHash", "speedup", "aggregate:"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("Load accepted non-JSON")
	}
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"schema":"other","points":[{}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(wrong); err == nil {
		t.Error("Load accepted a wrong schema")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":"`+Schema+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(empty); err == nil {
		t.Error("Load accepted a pointless report")
	}
}

// TestLoadAcceptsV2Baseline: a report written before the parallel leg was
// dropped still loads, so older trajectories stay usable with -against; its
// parallel fields are ignored and its idle-skip figures kept.
func TestLoadAcceptsV2Baseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.json")
	v2 := `{"schema":"bench-machine-v2","points":[{"kernel":"k","n":64,"cores":1,` +
		`"idleSkipNsPerCycle":12.5,"simWorkers":4,"parallelNs":9,"parSpeedup":0.8}]}`
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Points[0].IdleSkipNsPerCycle != 12.5 {
		t.Errorf("v2 point loaded as %+v", r.Points[0])
	}
}

func TestBadSelector(t *testing.T) {
	if _, err := Measure(Grid{Kernels: []string{"no-such-kernel"}}); err == nil {
		t.Error("Measure accepted an unknown kernel selector")
	}
}
