// Command repro exercises the whole reproduction stack from the command
// line:
//
//	repro bench    — run every PBBS kernel on the emulator, validating
//	                 checksums against the pure-Go references
//	repro ilp      — regenerate the paper's Fig. 7: trace-dataflow ILP of
//	                 the ten kernels under the sequential and parallel
//	                 dependence models (batch-measured with a worker pool)
//	repro machine  — cross-validate kernels on the cycle-level many-core
//	                 simulator against the emulator and report cycles/IPC
//	repro analytic — print the Section 5 closed-form scaling table for the
//	                 sum reduction
//	repro sweep    — the scaling laboratory: run the machine across the
//	                 cross-product of kernel × size × cores × NoC topology ×
//	                 shortcut × placement cap, with a content-keyed result
//	                 cache, streaming JSONL output and baseline diffing
//	repro bench-sim — time the simulator itself: dense vs idle-skip
//	                 scheduler over a kernel × cores grid, cross-checked for
//	                 identical results, written to BENCH_machine.json
//	repro serve    — simulation as a service: a long-running HTTP job server
//	                 over the sweep engine and cache (submit sweeps and runs,
//	                 poll status, stream JSONL results, browse catalogs); also
//	                 the fabric coordinator — sweeps shard across registered
//	                 workers, falling back to local execution with none
//	repro worker   — fabric worker: register with a coordinator, lease grid
//	                 points, measure them locally and report the records back
//	repro fuzz     — differential fuzzing: generate seeded random mini-C
//	                 programs and check the four execution substrates agree
//	                 bit for bit, minimizing any failure to a reproducer
//	repro kernels  — the kernel front end: list the catalog (with source
//	                 language), dump a kernel's generated mini-C + assembly,
//	                 or -vet the whole suite (every kernel re-derived and
//	                 cross-checked on emulator + machine)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/analytic"
	"repro/internal/backend"
	"repro/internal/pbbs"
)

// errUsage marks a bad invocation (unknown command, malformed flags): usage
// has already been printed and the process should exit 2. It is a sentinel
// so that every exit flows through main's single exit path — subcommands and
// usage never call os.Exit themselves, which would skip deferred cleanup
// (flushing output files, graceful server shutdown) and be untestable.
var errUsage = errors.New("usage error")

func usage() {
	fmt.Fprintf(os.Stderr, `usage: repro <command> [flags]

commands:
  bench      run every kernel on the emulator and validate checksums
  ilp        print the Fig. 7 table (sequential vs parallel trace ILP)
  machine    cross-validate kernels on the many-core simulator
  analytic   print the Section 5 scaling table
  sweep      scaling laboratory: sweep cores × topology × shortcut × cap
  bench-sim  benchmark the simulator: dense vs idle-skip scheduler
  serve      HTTP job server over the sweep engine and result cache;
             doubles as the sweep-fabric coordinator
  worker     fabric worker: lease sweep points from a coordinator
  fuzz       differential fuzzing of emulator vs machine schedulers
  kernels    list the kernel catalog, dump generated mini-C, vet the suite

run "repro <command> -h" for the flags of each command.
`)
}

// parseFlags folds flag.FlagSet outcomes into the shared exit paths: nil on
// success, flag.ErrHelp after -h/-help (exit 0; flag printed the defaults),
// errUsage on a malformed flag (exit 2; flag printed the problem). Flag sets
// must be created with flag.ContinueOnError so that this function, not the
// flag package, decides how the process exits.
func parseFlags(fs *flag.FlagSet, args []string) error {
	switch err := fs.Parse(args); {
	case err == nil:
		return nil
	case errors.Is(err, flag.ErrHelp):
		return flag.ErrHelp
	default:
		return errUsage
	}
}

// exitCode maps run's error to the process exit status: 0 on success and
// after help, 2 for usage errors, 1 for runtime failures (which it prints).
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		return 1
	}
}

func main() {
	os.Exit(exitCode(run(os.Args[1:])))
}

// run dispatches the subcommand and returns rather than exits, so the whole
// CLI surface — including the unknown-command path — is testable and
// deferred cleanup always runs.
func run(args []string) error {
	if len(args) < 1 {
		usage()
		return errUsage
	}
	switch cmd := args[0]; cmd {
	case "bench":
		return cmdBench(args[1:])
	case "ilp":
		return cmdILP(args[1:])
	case "machine":
		return cmdMachine(args[1:])
	case "analytic":
		return cmdAnalytic(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "bench-sim":
		return cmdBenchSim(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "worker":
		return cmdWorker(args[1:])
	case "fuzz":
		return cmdFuzz(args[1:])
	case "kernels":
		return cmdKernels(args[1:])
	case "-h", "--help", "help":
		usage()
		return nil
	default:
		fmt.Fprintf(os.Stderr, "repro: unknown command %q\n", cmd)
		usage()
		return errUsage
	}
}

// selectKernels resolves the -kernel flag: 0 means all.
func selectKernels(id int) ([]*pbbs.Kernel, error) {
	if id == 0 {
		return pbbs.Kernels(), nil
	}
	k, err := pbbs.ByID(id)
	if err != nil {
		return nil, err
	}
	return []*pbbs.Kernel{k}, nil
}

// usageErrf reports a bad invocation on stderr and returns errUsage, so the
// process exits 2 like any other malformed command line — exitCode prints
// nothing for errUsage, hence the message here.
func usageErrf(format string, args ...any) error {
	fmt.Fprintf(os.Stderr, "repro: "+format+"\n", args...)
	return errUsage
}

// parseSizes parses a comma-separated size list.
func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	n := fs.Int("n", 64, "dataset size")
	seed := fs.Uint64("seed", 1, "workload seed")
	kid := fs.Int("kernel", 0, "benchmark number (0 = all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ks, err := selectKernels(*kid)
	if err != nil {
		return err
	}
	fmt.Printf("%-3s %-40s %8s %10s %20s %s\n", "#", "benchmark", "n", "instr", "checksum", "status")
	for _, k := range ks {
		res, err := k.Run(*n, *seed, false)
		if err != nil {
			fmt.Printf("%-3d %-40s %8d %10s %20s FAIL: %v\n", k.ID, k.Name, k.ClampN(*n), "-", "-", err)
			continue
		}
		fmt.Printf("%-3d %-40s %8d %10d %20d ok\n", k.ID, k.Name, res.N, res.Steps, res.Checksum)
	}
	return nil
}

func cmdILP(args []string) error {
	fs := flag.NewFlagSet("ilp", flag.ContinueOnError)
	sizes := fs.String("sizes", "32,64,128", "comma-separated dataset sizes")
	seed := fs.Uint64("seed", 1, "workload seed")
	workers := fs.Int("workers", 0, "measurement workers (0 = GOMAXPROCS)")
	kid := fs.Int("kernel", 0, "benchmark number (0 = all)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ns, err := parseSizes(*sizes)
	if err != nil {
		return err
	}
	ks, err := selectKernels(*kid)
	if err != nil {
		return err
	}
	points, err := pbbs.MeasureAll(ks, ns, *seed, *workers)
	if len(points) > 0 {
		fmt.Println("Fig. 7 — trace-dataflow ILP, sequential vs parallel dependence model")
		fmt.Print(pbbs.Fig7Table(points))
	}
	return err
}

func cmdMachine(args []string) error {
	fs := flag.NewFlagSet("machine", flag.ContinueOnError)
	n := fs.Int("n", 12, "dataset size (kept small: cycle-level simulation)")
	seed := fs.Uint64("seed", 1, "workload seed")
	cores := fs.Int("cores", 8, "simulated cores")
	kid := fs.Int("kernel", 0, "benchmark number (0 = all)")
	dense := fs.Bool("dense", false, "use the reference dense scheduler instead of idle-skip")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	ks, err := selectKernels(*kid)
	if err != nil {
		return err
	}
	fmt.Printf("%-3s %-40s %8s %10s %10s %9s %9s %s\n",
		"#", "benchmark", "n", "instr", "cycles", "IPC", "sections", "status")
	failed := false
	for _, k := range ks {
		kn := k.ClampN(*n)
		mb := backend.NewMachine(*cores)
		mb.Cfg.Dense = *dense
		rm, err := k.CrossValidateOn(mb, *n, *seed)
		if err != nil {
			fmt.Printf("%-3d %-40s %8d %10s %10s %9s %9s FAIL: %v\n",
				k.ID, k.Name, kn, "-", "-", "-", "-", err)
			failed = true
			continue
		}
		ipc := float64(rm.Instructions) / float64(rm.Cycles)
		fmt.Printf("%-3d %-40s %8d %10d %10d %9.2f %9d ok (rax and memory match emulator)\n",
			k.ID, k.Name, kn, rm.Instructions, rm.Cycles, ipc, len(rm.Machine.Sections))
	}
	if failed {
		return fmt.Errorf("machine/emulator divergence")
	}
	return nil
}

func cmdAnalytic(args []string) error {
	fs := flag.NewFlagSet("analytic", flag.ContinueOnError)
	maxN := fs.Int("maxn", 8, "largest doubling step")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	fmt.Println("Section 5 — closed-form scaling of the fork sum over 5·2ⁿ elements")
	fmt.Printf("%3s %10s %14s %11s %12s %10s %11s %10s\n",
		"n", "elements", "instructions", "fetch(cyc)", "retire(cyc)", "fetchIPC", "retireIPC", "sections")
	for _, r := range analytic.Table(*maxN) {
		fmt.Printf("%3d %10d %14d %11d %12d %10.1f %11.1f %10d\n",
			r.N, r.Elements, r.Instructions, r.FetchTime, r.RetireTime, r.FetchIPC, r.RetireIPC, r.Sections)
	}
	return nil
}
