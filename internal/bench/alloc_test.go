package bench

import (
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
	"repro/internal/pbbs"
)

// steadyAllocBudget bounds the heap allocations of one whole warmed
// simulation (thousands of cycles): the Result construction and a few
// fixed-cost odds and ends. Anything per-cycle or per-instruction creeping
// back into the hot path shows up as thousands of allocations per run and
// fails loudly — the pre-arena implementation allocated ~30k times on this
// workload.
const steadyAllocBudget = 64

// inject writes the workload inputs into the machine's committed memory,
// exactly as backend.Machine.Run does after machine.New.
func inject(t *testing.T, m *machine.Machine, prog *isa.Program, in backend.Inputs) {
	t.Helper()
	for sym, words := range in {
		addr, ok := prog.DataAddr(sym)
		if !ok {
			t.Fatalf("program has no data symbol %q", sym)
		}
		for i, w := range words {
			m.DMH().WriteU64(addr+uint64(8*i), w)
		}
	}
}

// TestSteadyStateAllocs pins the tentpole's allocation contract: on a warmed
// machine (arenas grown to the workload's footprint by one completed run),
// Reset + re-run performs effectively zero heap allocations per simulated
// cycle. Checked on one core and on 16 (multi-core exercises the renaming
// request path, section migration and the per-core queues).
func TestSteadyStateAllocs(t *testing.T) {
	k, err := pbbs.Find("duplicates")
	if err != nil {
		t.Fatal(err)
	}
	n := k.ClampN(64)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(n, 1)
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatal(err)
	}

	for _, cores := range []int{1, 16} {
		m, err := machine.New(prog, machine.DefaultConfig(cores))
		if err != nil {
			t.Fatal(err)
		}
		inject(t, m, prog, in)
		warm, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if warm.RAX != want {
			t.Fatalf("c%d: checksum %d, reference %d", cores, warm.RAX, want)
		}

		var runErr error
		avg := testing.AllocsPerRun(3, func() {
			m.Reset()
			for sym, words := range in {
				addr, _ := prog.DataAddr(sym)
				for i, w := range words {
					m.DMH().WriteU64(addr+uint64(8*i), w)
				}
			}
			res, err := m.Run()
			if err != nil {
				runErr = err
				return
			}
			if res.RAX != want || res.Cycles != warm.Cycles {
				runErr = errMismatch
			}
		})
		if runErr != nil {
			t.Fatalf("c%d: warmed re-run failed: %v", cores, runErr)
		}
		perCycle := avg / float64(warm.Cycles)
		t.Logf("c%d: %.0f allocs per warmed run over %d cycles = %g allocs/cycle",
			cores, avg, warm.Cycles, perCycle)
		if avg > steadyAllocBudget {
			t.Errorf("c%d: warmed run allocated %.0f times (budget %d; %g allocs per simulated cycle) — the hot path is no longer allocation-free",
				cores, avg, steadyAllocBudget, perCycle)
		}
	}
}

// TestSteadyStateAllocsThroughPool re-checks the allocation contract through
// the warm-machine pool: a Get-hit (Reset + re-arm), injection, run and Put
// cycle must stay within the same budget as a bare Reset re-run — the pool
// adds bookkeeping, not per-cycle allocation.
func TestSteadyStateAllocsThroughPool(t *testing.T) {
	k, err := pbbs.Find("duplicates")
	if err != nil {
		t.Fatal(err)
	}
	n := k.ClampN(64)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(n, 1)
	want, err := k.Ref(n, in)
	if err != nil {
		t.Fatal(err)
	}

	cfg := machine.DefaultConfig(16)
	pool := machine.NewPool()
	warmM, err := pool.Get("alloc", prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inject(t, warmM, prog, in)
	warm, err := warmM.Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.RAX != want {
		t.Fatalf("checksum %d, reference %d", warm.RAX, want)
	}
	pool.Put("alloc", warmM)

	var runErr error
	avg := testing.AllocsPerRun(3, func() {
		m, err := pool.Get("alloc", prog, cfg)
		if err != nil {
			runErr = err
			return
		}
		for sym, words := range in {
			addr, _ := prog.DataAddr(sym)
			for i, w := range words {
				m.DMH().WriteU64(addr+uint64(8*i), w)
			}
		}
		res, err := m.Run()
		if err != nil {
			runErr = err
			return
		}
		pool.Put("alloc", m)
		if res.RAX != want || res.Cycles != warm.Cycles {
			runErr = errMismatch
		}
	})
	if runErr != nil {
		t.Fatalf("pooled re-run failed: %v", runErr)
	}
	if s := pool.Stats(); s.Hits < 4 {
		t.Fatalf("pool stats %+v: the measured loop was not running on pool hits", s)
	}
	t.Logf("%.0f allocs per pooled run over %d cycles", avg, warm.Cycles)
	if avg > steadyAllocBudget {
		t.Errorf("pooled run allocated %.0f times (budget %d) — Get/Put is no longer allocation-free",
			avg, steadyAllocBudget)
	}
}

// freshBytesPerInstBudget bounds the heap bytes a fresh machine allocates per
// simulated instruction, from New through Run. Arena chunks come from the
// process-wide free lists a previous run filled, and the timing rows hold no
// pointer, so what is left is the Result and per-section bookkeeping (~126 B
// per instruction on quickSort n=64, 16 cores). Allocating DynInst chunks per
// run again costs ~360 B more.
const freshBytesPerInstBudget = 160

// TestFreshMachineBytesPerInstruction pins that per-instruction memory is
// recycled across machines, not only across Reset: after a warm-up run of
// another shape, a brand-new machine's New + inject + Run stays within
// freshBytesPerInstBudget bytes per instruction. Bytes, not allocation
// counts, and per instruction, so the bound does not depend on the host.
func TestFreshMachineBytesPerInstruction(t *testing.T) {
	k, err := pbbs.Find("quicksort")
	if err != nil {
		t.Fatal(err)
	}
	n := k.ClampN(64)
	prog, err := k.Build(n, minic.ModeFork)
	if err != nil {
		t.Fatal(err)
	}
	in := k.Gen(n, 1)
	run := func(cores int) *machine.Result {
		m, err := machine.New(prog, machine.DefaultConfig(cores))
		if err != nil {
			t.Fatal(err)
		}
		inject(t, m, prog, in)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	run(8) // warm-up: fills the chunk free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run(16)
	runtime.ReadMemStats(&after)
	perInst := float64(after.TotalAlloc-before.TotalAlloc) / float64(res.Instructions)
	t.Logf("%.0f bytes per instruction over %d instructions", perInst, res.Instructions)
	if perInst > freshBytesPerInstBudget {
		t.Errorf("a fresh machine allocated %.0f bytes per instruction (budget %d): per-instruction memory is no longer recycled across runs",
			perInst, freshBytesPerInstBudget)
	}
}

var errMismatch = errString("warmed re-run produced a different result")

type errString string

func (e errString) Error() string { return string(e) }
