package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/progs"
)

// runSched runs prog under one scheduler and returns the result.
func runSched(t *testing.T, prog *isa.Program, cfg Config, dense bool) *Result {
	t.Helper()
	cfg.Dense = dense
	m, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Run()
	if err != nil {
		t.Fatalf("dense=%v: %v", dense, err)
	}
	return r
}

// checkIdentical asserts two results are bit-identical: every headline
// metric, every message counter, every per-instruction stage timestamp and
// every section record.
func checkIdentical(t *testing.T, label string, dense, skip *Result) {
	t.Helper()
	if dense.Cycles != skip.Cycles || dense.Instructions != skip.Instructions ||
		dense.RAX != skip.RAX || dense.FetchDone != skip.FetchDone ||
		dense.RetireDone != skip.RetireDone {
		t.Errorf("%s: headline metrics differ:\n dense: %s\n skip:  %s",
			label, dense.Summary(), skip.Summary())
	}
	if dense.RegRequests != skip.RegRequests || dense.MemRequests != skip.MemRequests ||
		dense.CreateMessages != skip.CreateMessages || dense.RequestHops != skip.RequestHops ||
		dense.ResponseMessages != skip.ResponseMessages || dense.DMHAnswers != skip.DMHAnswers ||
		dense.NocMessages() != skip.NocMessages() {
		t.Errorf("%s: NoC accounting differs: dense {create %d hops %d resp %d dmh %d}, skip {create %d hops %d resp %d dmh %d}",
			label, dense.CreateMessages, dense.RequestHops, dense.ResponseMessages, dense.DMHAnswers,
			skip.CreateMessages, skip.RequestHops, skip.ResponseMessages, skip.DMHAnswers)
	}
	if dense.Regs != skip.Regs {
		t.Errorf("%s: final register files differ", label)
	}
	if !reflect.DeepEqual(dense.Sections, skip.Sections) {
		t.Errorf("%s: section records differ", label)
	}
	if !reflect.DeepEqual(dense.Timings, skip.Timings) {
		if len(dense.Timings) != len(skip.Timings) {
			t.Fatalf("%s: %d vs %d timing rows", label, len(dense.Timings), len(skip.Timings))
		}
		for i := range dense.Timings {
			if dense.Timings[i] != skip.Timings[i] {
				t.Errorf("%s: timing row %d differs: dense %+v, skip %+v",
					label, i, dense.Timings[i], skip.Timings[i])
				break
			}
		}
	}
}

// TestIdleSkipMatchesDense: the idle-skip scheduler is an optimisation, not a
// model change — on the paper's workloads it must reproduce the dense loop's
// result exactly, down to each instruction's six stage timestamps, across
// core counts, topologies, the shortcut ablation and the packing cap. The
// ten-kernel PBBS leg of the oracle lives in oracle_test.go (external
// package, to avoid the pbbs import cycle).
func TestIdleSkipMatchesDense(t *testing.T) {
	build := func(f func() (*isa.Program, error)) *isa.Program {
		p, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	workloads := map[string]*isa.Program{
		"sum40":  build(func() (*isa.Program, error) { return progs.BuildSumFork(progs.Vector(40)) }),
		"fib9":   build(func() (*isa.Program, error) { return progs.BuildFibFork(9) }),
		"vmax16": build(func() (*isa.Program, error) { return progs.BuildMaxFork(progs.Vector(16)) }),
	}
	for name, p := range workloads {
		for _, cores := range []int{1, 2, 5, 8, 64} {
			cfg := DefaultConfig(cores)
			dense := runSched(t, p, cfg, true)
			skip := runSched(t, p, cfg, false)
			checkIdentical(t, name+"/default", dense, skip)
		}
	}
	p := workloads["sum40"]
	variants := []Config{
		{Cores: 8, Net: noc.NewRing(8, 1), CreateLatency: 2, Shortcut: true},
		{Cores: 8, Net: noc.NewMesh(4, 2, 1), CreateLatency: 2, Shortcut: true},
		{Cores: 8, Net: noc.NewCrossbar(8, 5), CreateLatency: 7, Shortcut: true},
		{Cores: 8, CreateLatency: 2, Shortcut: false},
		{Cores: 8, CreateLatency: 2, Shortcut: true, MaxSectionsPerCore: 2},
		{Cores: 3, CreateLatency: 2, Shortcut: true, MaxSectionsPerCore: 1},
	}
	for i, cfg := range variants {
		dense := runSched(t, p, cfg, true)
		skip := runSched(t, p, cfg, false)
		checkIdentical(t, fmt.Sprintf("variant %d (%+v)", i, cfg), dense, skip)
	}
}

// TestStallResumeLatency pins the stalled-branch resume boundary: a control
// instruction that cannot be computed at fetch blocks the section until the
// execute-write-back stage resolves it at some cycle t; fetch must resume at
// exactly t+1 (not t, not t+2) under both schedulers. The program forces the
// stall by branching on flags produced from a loaded (hence fetch-empty)
// register.
func TestStallResumeLatency(t *testing.T) {
	p, err := asm.Assemble(`
_start: movq $t, %rdi
        movq (%rdi), %rax
        cmpq $0, %rax
        je .skip
        movq $1, %rbx
.skip:  hlt
.data
t: .quad 5
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, dense := range []bool{true, false} {
		r := runSched(t, p, DefaultConfig(1), dense)
		var branch, next *InstTiming
		for i := range r.Timings {
			ti := &r.Timings[i]
			if strings.HasPrefix(r.Text(*ti), "je") {
				branch = ti
				if i+1 < len(r.Timings) {
					next = &r.Timings[i+1]
				}
			}
		}
		if branch == nil || next == nil {
			t.Fatalf("dense=%v: branch or successor not found in timings", dense)
		}
		if branch.FD >= branch.EW {
			t.Fatalf("dense=%v: branch did not stall (fd=%d ew=%d)", dense, branch.FD, branch.EW)
		}
		if got, want := next.FD, branch.EW+1; got != want {
			t.Errorf("dense=%v: fetch resumed at cycle %d, want %d (branch resolved at %d, resume latency must be exactly one cycle)",
				dense, got, want, branch.EW)
		}
	}
}

// TestIdleSkipStallDetection: the clock-jumping scheduler must still trip the
// progress detector on a deadlocked/looping program, at the same cycle and
// with the same error as the dense loop.
func TestIdleSkipStallDetection(t *testing.T) {
	p, err := asm.Assemble(`
_start: jmp _start
`)
	if err != nil {
		t.Fatal(err)
	}
	errFor := func(dense bool) string {
		cfg := DefaultConfig(2)
		cfg.MaxCycles = 5000
		cfg.Dense = dense
		m, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, rerr := m.Run()
		if rerr == nil {
			t.Fatalf("dense=%v: infinite loop did not abort", dense)
		}
		return rerr.Error()
	}
	if d, s := errFor(true), errFor(false); d != s {
		t.Errorf("abort errors differ:\n dense: %s\n skip:  %s", d, s)
	}
}

// TestIdleSkipSkipsCycles is the point of the tentpole: on a many-core run
// with long NoC latencies most cycles are dead time, and the scheduler's
// wake computation must be able to jump them. We can't observe the jumps
// directly from Result (the metrics are identical by design), so assert the
// enabling property instead: nextWake on a fresh machine reports the first
// creation-message consumption cycle rather than cycle+1.
func TestIdleSkipSkipsCycles(t *testing.T) {
	p, err := progs.BuildSumFork(progs.Vector(10))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// The initial section's creation message is queued with deliverAt 0 and
	// is consumable once deliverAt < cycle, i.e. from cycle 1 on.
	if got := m.nextWake(); got != 1 {
		t.Errorf("fresh machine nextWake = %d, want 1", got)
	}
}
