// Scheduler oracle over the full PBBS suite. This lives in the external test
// package because internal/pbbs imports internal/backend, which imports
// internal/machine — an in-package test would be an import cycle. The small
// hand-built workloads' dense-vs-idle-skip checks (and the
// scheduler-internals tests) stay in sched_test.go.
package machine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// runMachine executes a compiled kernel on one scheduler and returns the
// full machine result. The program and inputs are built once by the caller
// and shared across the schedulers: timing rows carry instruction pointers,
// so bit-identity is only meaningful against the same compilation. The
// kernel's checksum is checked against its Go reference.
func runMachine(t *testing.T, k *pbbs.Kernel, prog *isa.Program, in pbbs.Inputs, n, cores int, dense bool) *machine.Result {
	t.Helper()
	mb := &backend.Machine{Cfg: machine.Config{
		Cores:         cores,
		CreateLatency: 2,
		Shortcut:      true,
		Dense:         dense,
	}}
	res, err := mb.Run(prog, in, false)
	if err != nil {
		t.Fatalf("%s n=%d cores=%d dense=%v: %v", k.Name, n, cores, dense, err)
	}
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatalf("%s n=%d: reference: %v", k.Name, n, err)
	}
	if res.RAX != want {
		t.Fatalf("%s n=%d cores=%d: checksum %d, reference %d", k.Name, n, cores, res.RAX, want)
	}
	return res.Machine
}

// sameResult asserts two machine results are bit-identical, down to each
// instruction's six stage timestamps and each section record.
func sameResult(t *testing.T, label string, a, b *machine.Result) {
	t.Helper()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.RAX != b.RAX ||
		a.FetchDone != b.FetchDone || a.RetireDone != b.RetireDone ||
		a.RegRequests != b.RegRequests || a.MemRequests != b.MemRequests ||
		a.CreateMessages != b.CreateMessages || a.RequestHops != b.RequestHops ||
		a.ResponseMessages != b.ResponseMessages || a.DMHAnswers != b.DMHAnswers {
		t.Errorf("%s: headline metrics differ:\n a: %s\n b: %s", label, a.Summary(), b.Summary())
	}
	if a.Regs != b.Regs {
		t.Errorf("%s: final register files differ", label)
	}
	if !reflect.DeepEqual(a.Sections, b.Sections) {
		t.Errorf("%s: section records differ", label)
	}
	if len(a.Timings) != len(b.Timings) {
		t.Fatalf("%s: %d vs %d timing rows", label, len(a.Timings), len(b.Timings))
	}
	for i := range a.Timings {
		if a.Timings[i] != b.Timings[i] {
			t.Errorf("%s: timing row %d differs:\n a: %+v\n b: %+v", label, i, a.Timings[i], b.Timings[i])
			return
		}
	}
}

// bigNDigests are the recorded digests of the paper-scale quickSort runs
// (64 crossbar cores, shortcut on, seed 1), one "<n> <sha256>" line per size.
const bigNDigests = "testdata/bign_digests.txt"

// resultDigest is a SHA-256 over everything a run reports: the headline
// counters, every section record and every per-instruction timing row (the
// instruction itself by its IP, the pointer being run-specific).
func resultDigest(r *machine.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d insts=%d fetch=%d retire=%d rax=%d cores=%d net=%s\n",
		r.Cycles, r.Instructions, r.FetchDone, r.RetireDone, r.RAX, r.Cores, r.NetName)
	fmt.Fprintf(h, "regs=%v fetched=%v\n", r.Regs, r.FetchedPerCore)
	fmt.Fprintf(h, "reqs=%d/%d create=%d hops=%d resp=%d dmh=%d\n",
		r.RegRequests, r.MemRequests, r.CreateMessages, r.RequestHops, r.ResponseMessages, r.DMHAnswers)
	for _, s := range r.Sections {
		fmt.Fprintf(h, "sec %+v\n", s)
	}
	for _, t := range r.Timings {
		fmt.Fprintf(h, "t %d %d %d %d %d %d %d %d %d %d %d\n",
			t.Section, t.SecPos, t.Idx, t.IP, t.Level, t.FD, t.RR, t.EW, t.AR, t.MA, t.RET)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBigNDigest pins the idle-skip scheduler in the paper-scale regime,
// where the dense oracle is minutes-slow: quickSort at n=256 and n=512 on 64
// cores must reproduce, bit for bit, the result digest recorded in testdata
// before the issue queues learned to park blocked entries. -short checks
// n=256 only.
func TestBigNDigest(t *testing.T) {
	raw, err := os.ReadFile(bigNDigests)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var n int
		var d string
		if _, err := fmt.Sscanf(line, "%d %s", &n, &d); err != nil {
			t.Fatalf("%s: bad line %q: %v", bigNDigests, line, err)
		}
		want[n] = d
	}
	k, err := pbbs.Find("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{256, 512}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		prog, err := k.Build(n, minic.ModeFork)
		if err != nil {
			t.Fatal(err)
		}
		res := runMachine(t, k, prog, k.Gen(n, 1), n, 64, false)
		if got := resultDigest(res); got != want[n] {
			t.Errorf("%s n=%d cores=64: result digest %s, recorded %s", k.Name, n, got, want[n])
		}
	}
}

// TestThreeWayOracle pins the idle-skip scheduler's exactness on the paper's
// workloads: for every PBBS kernel, the Go reference checksum, the dense
// reference loop and the idle-skip scheduler agree — and the two schedulers
// bit-identically: same cycle count, same per-instruction stage timestamps,
// same NoC accounting, same final architectural state.
func TestThreeWayOracle(t *testing.T) {
	for _, k := range pbbs.Kernels() {
		k := k
		t.Run(fmt.Sprintf("%02d-%s", k.ID, k.Name), func(t *testing.T) {
			n := k.ClampN(12)
			prog, err := k.Build(n, minic.ModeFork)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			in := k.Gen(n, 1)
			for _, cores := range []int{1, 4, 16} {
				dense := runMachine(t, k, prog, in, n, cores, true)
				skip := runMachine(t, k, prog, in, n, cores, false)
				sameResult(t, fmt.Sprintf("%s n=%d cores=%d dense vs idle-skip", k.Name, n, cores), dense, skip)
			}
		})
	}
}

// TestSelectionWorkFlatInN pins the point of parking blocked entries: the
// queue entries the idle-skip scheduler's EW/MA selection visits per
// simulated cycle must not grow with the problem size. quickSort's queues
// grow with n, so an O(queue) scan creeping back shows up here as a ratio
// far above 2, independent of the host: polling every queued entry visits
// 4.0x more per cycle at n=256 than at n=64, and 8.0x more at n=512. -short
// compares against n=256.
func TestSelectionWorkFlatInN(t *testing.T) {
	k, err := pbbs.Find("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	perCycle := func(n int) float64 {
		prog, err := k.Build(n, minic.ModeFork)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(prog, machine.DefaultConfig(64))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Inject(prog, m.DMH(), k.Gen(n, 1)); err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		v := float64(machine.SelectVisits(m)) / float64(res.Cycles)
		t.Logf("n=%d: %d cycles, %.2f selection visits per cycle", n, res.Cycles, v)
		return v
	}
	bigN := 512
	if testing.Short() {
		bigN = 256
	}
	small, big := perCycle(64), perCycle(bigN)
	if big > 2*small {
		t.Errorf("selection visits per cycle grew %.1fx from n=64 to n=%d (want <= 2x)", big/small, bigN)
	}
}
