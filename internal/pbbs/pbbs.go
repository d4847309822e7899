// Package pbbs implements the reproduction's stand-in for the Problem Based
// Benchmark Suite used by the paper's Fig. 7 (Table 1): the same ten
// algorithms, plus a histogram extra, compiled to the reproduction ISA, run
// on the functional emulator with trace capture, and analysed with the
// internal/ilp dependence models.
//
// The paper traces the original C++ PBBS programs with gcc-generated x86;
// that substrate is not available here, so each kernel is re-implemented over
// the same algorithm (see DESIGN.md's substitution table). The quantity
// Fig. 7 plots — trace-dataflow ILP under the sequential and parallel
// dependence models — depends only on the dynamic dependence structure of
// the algorithm, which these kernels preserve.
//
// Every kernel has one definition: an annotated Go file in kernels/, lowered
// to mini-C by internal/gofront. Its main returns a checksum that the harness
// validates against the reference gofront interprets from the same lowered
// AST, so the compiler, emulator and machine are cross-checked on every run.
// The file's inputs= annotation names the input generator in gen.go.
//
// Kernels register at package init, so adding a workload is a one-file
// drop-in: the batch harness, the CLI and the cross-validation tests pick up
// every annotated file in kernels/.
package pbbs

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/gofront"
	"repro/internal/ilp"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/trace"
)

// rng is a small deterministic xorshift64* generator so that workloads are
// reproducible across runs and platforms.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// uintn returns a value in [0, n).
func (r *rng) uintn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// Inputs maps data-segment symbols to the 64-bit words to inject before the
// run.
type Inputs = backend.Inputs

// Kernel is one benchmark of Table 1: the scanned annotated-Go kernel, whose
// promoted Source lowers it to mini-C for a dataset size and whose promoted
// Ref interprets that lowering for the reference checksum, plus the input
// generator its inputs= annotation names.
type Kernel struct {
	*gofront.Kernel
	gen func(n int, r *rng) Inputs
}

// registry holds the registered kernels, keyed by benchmark number.
var registry = make(map[int]*Kernel)

// Kernels returns the registered benchmarks in the paper's (ID) order.
func Kernels() []*Kernel {
	ks := make([]*Kernel, 0, len(registry))
	for _, k := range registry {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].ID < ks[j].ID })
	return ks
}

// Info is the exported catalog metadata of one kernel: what a serving layer
// or UI needs to list the Table 1 suite without holding the Kernel itself.
type Info struct {
	// ID is the paper's benchmark number (1..10).
	ID int `json:"id"`
	// Name is the paper's "suite/implementation" label.
	Name string `json:"name"`
	// MinN is the smallest dataset size the kernel supports; requested
	// sizes below it are clamped up to it.
	MinN int `json:"minN"`
}

// Catalog returns the registered benchmarks' metadata in the paper's (ID)
// order. The job server serves it at /v1/kernels.
func Catalog() []Info {
	ks := Kernels()
	infos := make([]Info, len(ks))
	for i, k := range ks {
		infos[i] = Info{ID: k.ID, Name: k.Name, MinN: k.MinN}
	}
	return infos
}

// ByID returns the kernel with the paper's benchmark number.
func ByID(id int) (*Kernel, error) {
	if k, ok := registry[id]; ok {
		return k, nil
	}
	return nil, fmt.Errorf("pbbs: no benchmark %d", id)
}

// Find resolves a kernel selector: a benchmark number ("2") or a
// case-insensitive substring of the kernel name ("quicksort"). A selector
// matching several kernels is an error listing the candidates; an empty one
// is an error too, since it would match them all.
func Find(sel string) (*Kernel, error) {
	sel = strings.TrimSpace(sel)
	if sel == "" {
		return nil, errors.New("pbbs: empty kernel selector")
	}
	if id, err := strconv.Atoi(sel); err == nil {
		return ByID(id)
	}
	var hits []*Kernel
	low := strings.ToLower(sel)
	for _, k := range Kernels() {
		if strings.Contains(strings.ToLower(k.Name), low) {
			hits = append(hits, k)
		}
	}
	switch len(hits) {
	case 1:
		return hits[0], nil
	case 0:
		return nil, fmt.Errorf("pbbs: no benchmark matches %q", sel)
	}
	names := make([]string, len(hits))
	for i, k := range hits {
		names[i] = k.Name
	}
	return nil, fmt.Errorf("pbbs: %q is ambiguous: %s", sel, strings.Join(names, ", "))
}

// FindAll resolves a comma-separated kernel selector list ("quicksort,bfs",
// "1,2,5"). The empty string and "all" select every registered kernel.
func FindAll(sels string) ([]*Kernel, error) {
	sels = strings.TrimSpace(sels)
	if sels == "" || sels == "all" {
		return Kernels(), nil
	}
	var ks []*Kernel
	seen := make(map[int]bool)
	for _, sel := range strings.Split(sels, ",") {
		k, err := Find(sel)
		if err != nil {
			return nil, err
		}
		if !seen[k.ID] {
			seen[k.ID] = true
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].ID < ks[j].ID })
	return ks, nil
}

// ClampN returns the dataset size the kernel actually runs at for a
// requested n: n itself, or MinN when n is below the kernel's minimum.
func (k *Kernel) ClampN(n int) int {
	if n < k.MinN {
		return k.MinN
	}
	return n
}

// Gen generates the input arrays for a dataset of n elements. Each kernel
// draws from its own stream, seeded from the workload seed and the
// benchmark number, so kernels sharing a generator get different inputs.
func (k *Kernel) Gen(n int, seed uint64) Inputs {
	return k.gen(n, newRNG(seed+uint64(k.ID)*0x9e3779b9))
}

// Build compiles the kernel for a dataset size in the given calling
// convention (ModeCall for the emulator, ModeFork for the machine).
func (k *Kernel) Build(n int, mode minic.Mode) (*isa.Program, error) {
	src, err := k.Source(k.ClampN(n))
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s: %w", k.Name, err)
	}
	return minic.Compile(src, mode)
}

// RunResult is the outcome of one kernel execution.
type RunResult struct {
	Kernel   *Kernel      // the benchmark that ran
	N        int          // effective (clamped) dataset size
	Backend  string       // substrate that produced the result
	Checksum uint64       // the mini-C program's result (rax)
	Expected uint64       // the pure-Go reference checksum
	Steps    int64        // dynamic instructions
	Cycles   int64        // simulated cycles (== Steps on the emulator)
	Trace    *trace.Trace // nil unless traced
}

// RunOn compiles the kernel in the backend's calling convention, executes it
// there, and validates the checksum against the Go reference.
func (k *Kernel) RunOn(b backend.Backend, n int, seed uint64, traced bool) (*RunResult, error) {
	if traced && !b.SupportsTrace() {
		return nil, fmt.Errorf("pbbs: %s: backend %s cannot capture traces", k.Name, b.Name())
	}
	n = k.ClampN(n)
	prog, err := k.Build(n, b.Mode())
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d): %w", k.Name, n, err)
	}
	in := k.Gen(n, seed)
	r, err := b.Run(prog, in, traced)
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d) on %s: %w", k.Name, n, b.Name(), err)
	}
	want, err := k.Ref(n, in)
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d): reference: %w", k.Name, n, err)
	}
	res := &RunResult{
		Kernel:   k,
		N:        n,
		Backend:  b.Name(),
		Checksum: r.RAX,
		Expected: want,
		Steps:    r.Instructions,
		Cycles:   r.Cycles,
		Trace:    r.Trace,
	}
	if res.Checksum != res.Expected {
		return res, fmt.Errorf("pbbs: %s (n=%d) on %s: checksum %d, reference %d",
			k.Name, n, b.Name(), res.Checksum, res.Expected)
	}
	return res, nil
}

// Run executes the kernel on the sequential emulator, optionally capturing
// the trace, and validates the checksum against the Go reference.
func (k *Kernel) Run(n int, seed uint64, traced bool) (*RunResult, error) {
	return k.RunOn(backend.NewEmulator(), n, seed, traced)
}

// CrossValidate compiles the kernel in fork mode and runs it with identical
// inputs on the sequential emulator and on the many-core machine, checking
// that both agree on the final rax and the full data segment, and that the
// result matches the Go reference checksum. It returns the machine result.
func (k *Kernel) CrossValidate(n int, seed uint64, cores int) (*backend.Result, error) {
	return k.CrossValidateOn(backend.NewMachine(cores), n, seed)
}

// CrossValidateOn is CrossValidate with a caller-configured machine backend
// (scheduler, topology, placement knobs).
func (k *Kernel) CrossValidateOn(mb *backend.Machine, n int, seed uint64) (*backend.Result, error) {
	n = k.ClampN(n)
	prog, err := k.Build(n, mb.Mode())
	if err != nil {
		return nil, fmt.Errorf("pbbs: %s (n=%d): %w", k.Name, n, err)
	}
	in := k.Gen(n, seed)
	_, rm, err := backend.CrossValidate(prog, in, backend.NewEmulator(), mb)
	if err != nil {
		return rm, fmt.Errorf("pbbs: %s (n=%d): %w", k.Name, n, err)
	}
	want, err := k.Ref(n, in)
	if err != nil {
		return rm, fmt.Errorf("pbbs: %s (n=%d): reference: %w", k.Name, n, err)
	}
	if rm.RAX != want {
		return rm, fmt.Errorf("pbbs: %s (n=%d): machine checksum %d, reference %d",
			k.Name, n, rm.RAX, want)
	}
	return rm, nil
}

// ILPPoint is one bar of Fig. 7: a kernel at a dataset size under both
// dependence models.
type ILPPoint struct {
	Kernel       *Kernel
	N            int
	Instructions int
	SeqILP       float64
	ParILP       float64
}

// Speedup returns the parallel-over-sequential ILP ratio the paper
// highlights ("the potential of the parallel model").
func (p *ILPPoint) Speedup() float64 {
	if p.SeqILP == 0 {
		return 0
	}
	return p.ParILP / p.SeqILP
}

// MeasureILP runs the kernel traced on the emulator and analyses the trace
// under the paper's sequential and parallel models.
func (k *Kernel) MeasureILP(n int, seed uint64) (*ILPPoint, error) {
	res, err := k.Run(n, seed, true)
	if err != nil {
		return nil, err
	}
	seq := ilp.Analyze(res.Trace, ilp.Sequential())
	par := ilp.Analyze(res.Trace, ilp.Parallel())
	return &ILPPoint{
		Kernel:       k,
		N:            res.N,
		Instructions: res.Trace.Len(),
		SeqILP:       seq.ILP,
		ParILP:       par.ILP,
	}, nil
}
