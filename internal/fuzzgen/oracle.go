package fuzzgen

import (
	"fmt"
	"reflect"

	"repro/internal/backend"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/minic"
)

// Failure describes a fuzz case that broke the equivalence invariant.
// It implements error so drivers can return it directly.
type Failure struct {
	// Seed regenerates the original program; zero when the source did not
	// come from Generate (e.g. a minimized candidate).
	Seed uint64
	// Source is the failing mini-C program.
	Source string
	// Cores is the machine width the oracle ran at.
	Cores int
	// Stage classifies the failure: "compile", "emulator" (the sequential
	// oracle itself faulted), "machine" (a machine leg faulted), or
	// "mismatch" (two substrates disagreed).
	Stage string
	// Detail is the human-readable specifics: which legs, which metric.
	Detail string
}

func (f *Failure) Error() string {
	return fmt.Sprintf("fuzz seed %d (cores=%d) %s: %s", f.Seed, f.Cores, f.Stage, f.Detail)
}

// Oracle checks the repo's core invariant on one program with five legs:
// emulator ≡ idle-skip machine ≡ dense machine — checksums, final data
// segments, and per-instruction stage timestamps — and the idle-skip machine
// reproduces bit-identically after a warm Reset and through the pool.
type Oracle struct {
	// MaxSteps bounds the emulator leg; 0 uses a fuzz-sized default large
	// enough for any generator budget and small enough to fail fast on a
	// runaway minimizer candidate.
	MaxSteps int64
}

const fuzzMaxSteps = 1 << 22 // ~4M steps; generator programs use a few thousand

// CheckProgram runs a generated case through the full oracle.
func (o *Oracle) CheckProgram(p *Program) *Failure {
	f := o.Check(p.Source, p.Cores)
	if f != nil {
		f.Seed = p.Seed
	}
	return f
}

// Check compiles src once in fork mode and runs the compiled program on
// every substrate, returning nil if all agree or a Failure describing the
// first divergence. Compiling once is load-bearing: timing rows carry
// instruction pointers, so bit-identity is only meaningful against the same
// compilation.
func (o *Oracle) Check(src string, cores int) *Failure {
	fail := func(stage, format string, args ...any) *Failure {
		return &Failure{Source: src, Cores: cores, Stage: stage, Detail: fmt.Sprintf(format, args...)}
	}

	prog, err := minic.Compile(src, minic.ModeFork)
	if err != nil {
		return fail("compile", "%v", err)
	}

	// Substrate 1: the sequential emulator, bounded so that a minimizer
	// candidate that loops forever dies here instead of hanging a slower
	// machine leg.
	em := backend.NewEmulator()
	em.MaxSteps = o.MaxSteps
	if em.MaxSteps == 0 {
		em.MaxSteps = fuzzMaxSteps
	}
	emuRes, err := em.Run(prog, nil, false)
	if err != nil {
		return fail("emulator", "%v", err)
	}

	// Substrate 2: the idle-skip machine is the reference the other machine
	// legs are compared against.
	runLeg := func(dense bool) (*backend.Result, error) {
		cfg := machine.DefaultConfig(cores)
		cfg.Dense = dense
		mb := &backend.Machine{Cfg: cfg}
		return mb.Run(prog, nil, false)
	}
	ref, err := runLeg(false)
	if err != nil {
		return fail("machine", "idle-skip: %v", err)
	}

	// Emulator vs machine: architectural state (rax + full data segment).
	if emuRes.RAX != ref.RAX {
		return fail("mismatch", "emulator rax=%d, idle-skip machine rax=%d", emuRes.RAX, ref.RAX)
	}
	for off := uint64(0); off < uint64(len(prog.Data)); off += 8 {
		addr := isa.DataBase + off
		if a, b := emuRes.Mem.ReadU64(addr), ref.Mem.ReadU64(addr); a != b {
			return fail("mismatch", "data[%#x]: emulator=%d, idle-skip machine=%d", addr, a, b)
		}
	}

	// Substrate 3: the dense machine must be bit-identical to the idle-skip
	// reference, stage timestamps included.
	dense, err := runLeg(true)
	if err != nil {
		return fail("machine", "dense: %v", err)
	}
	if diff := diffResults(ref.Machine, dense.Machine); diff != "" {
		return fail("mismatch", "idle-skip vs dense: %s", diff)
	}

	// Warm re-runs: the same Machine after Reset, and a pool Get → Put →
	// Get cycle, must reproduce the cold run bit for bit.
	cfg := machine.DefaultConfig(cores)
	m, err := machine.New(prog, cfg)
	if err != nil {
		return fail("machine", "construct: %v", err)
	}
	cold, err := m.Run()
	if err != nil {
		return fail("machine", "cold run: %v", err)
	}
	if diff := diffResults(ref.Machine, cold); diff != "" {
		return fail("mismatch", "idle-skip vs fresh construction: %s", diff)
	}
	m.Reset()
	warm, err := m.Run()
	if err != nil {
		return fail("machine", "warm run after Reset: %v", err)
	}
	if diff := diffResults(cold, warm); diff != "" {
		return fail("mismatch", "cold vs warm-Reset re-run: %s", diff)
	}

	pool := &machine.Pool{}
	const key = "fuzz"
	pm, err := pool.Get(key, prog, cfg)
	if err != nil {
		return fail("machine", "pool get: %v", err)
	}
	if _, err := pm.Run(); err != nil {
		return fail("machine", "pooled cold run: %v", err)
	}
	pool.Put(key, pm)
	pm, err = pool.Get(key, prog, cfg) // warm hit: comes back via Reset
	if err != nil {
		return fail("machine", "pool warm get: %v", err)
	}
	pooled, err := pm.Run()
	if err != nil {
		return fail("machine", "pooled warm run: %v", err)
	}
	if diff := diffResults(ref.Machine, pooled); diff != "" {
		return fail("mismatch", "idle-skip vs pooled warm re-run: %s", diff)
	}
	if s := pool.Stats(); s.Hits != 1 || s.Misses != 1 {
		return fail("machine", "pool stats hits=%d misses=%d, want 1/1", s.Hits, s.Misses)
	}

	return nil
}

// diffResults compares two machine results for bit-identity — the same
// fields the scheduler oracle test pins: headline metrics, final register
// files, section records, and every per-instruction stage-timestamp row.
// It returns "" when identical, else a description of the first difference.
func diffResults(a, b *machine.Result) string {
	switch {
	case a.Cycles != b.Cycles:
		return fmt.Sprintf("cycles %d vs %d", a.Cycles, b.Cycles)
	case a.Instructions != b.Instructions:
		return fmt.Sprintf("instructions %d vs %d", a.Instructions, b.Instructions)
	case a.RAX != b.RAX:
		return fmt.Sprintf("rax %d vs %d", a.RAX, b.RAX)
	case a.FetchDone != b.FetchDone:
		return fmt.Sprintf("fetchDone %d vs %d", a.FetchDone, b.FetchDone)
	case a.RetireDone != b.RetireDone:
		return fmt.Sprintf("retireDone %d vs %d", a.RetireDone, b.RetireDone)
	case a.RegRequests != b.RegRequests:
		return fmt.Sprintf("regRequests %d vs %d", a.RegRequests, b.RegRequests)
	case a.MemRequests != b.MemRequests:
		return fmt.Sprintf("memRequests %d vs %d", a.MemRequests, b.MemRequests)
	case a.CreateMessages != b.CreateMessages:
		return fmt.Sprintf("createMessages %d vs %d", a.CreateMessages, b.CreateMessages)
	case a.RequestHops != b.RequestHops:
		return fmt.Sprintf("requestHops %d vs %d", a.RequestHops, b.RequestHops)
	case a.ResponseMessages != b.ResponseMessages:
		return fmt.Sprintf("responseMessages %d vs %d", a.ResponseMessages, b.ResponseMessages)
	case a.DMHAnswers != b.DMHAnswers:
		return fmt.Sprintf("dmhAnswers %d vs %d", a.DMHAnswers, b.DMHAnswers)
	}
	if a.Regs != b.Regs {
		return "final register files differ"
	}
	if !reflect.DeepEqual(a.Sections, b.Sections) {
		return "section records differ"
	}
	if len(a.Timings) != len(b.Timings) {
		return fmt.Sprintf("%d vs %d timing rows", len(a.Timings), len(b.Timings))
	}
	for i := range a.Timings {
		if a.Timings[i] != b.Timings[i] {
			return fmt.Sprintf("timing row %d: %+v vs %+v", i, a.Timings[i], b.Timings[i])
		}
	}
	return ""
}
