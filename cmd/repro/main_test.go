package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pbbs"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("1, 4,16")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 16}) {
		t.Errorf("parseSizes = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "0", "-3", "4,,8"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) accepted", bad)
		}
	}
}

func TestParseShortcutAxis(t *testing.T) {
	got, err := parseShortcutAxis("on,off")
	if err != nil || !reflect.DeepEqual(got, []bool{true, false}) {
		t.Errorf("parseShortcutAxis = %v, %v", got, err)
	}
	got, err = parseShortcutAxis("both")
	if err != nil || !reflect.DeepEqual(got, []bool{true, false}) {
		t.Errorf("parseShortcutAxis(both) = %v, %v", got, err)
	}
	if _, err := parseShortcutAxis("maybe"); err == nil {
		t.Error("parseShortcutAxis accepted garbage")
	}
}

func TestParseCaps(t *testing.T) {
	got, err := parseCaps("0,2")
	if err != nil || !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("parseCaps = %v, %v", got, err)
	}
	if _, err := parseCaps("-1"); err == nil {
		t.Error("parseCaps accepted a negative cap")
	}
}

func TestSelectKernels(t *testing.T) {
	all, err := selectKernels(0)
	if err != nil || len(all) != len(pbbs.Kernels()) {
		t.Errorf("selectKernels(0) = %d kernels, %v", len(all), err)
	}
	one, err := selectKernels(2)
	if err != nil || len(one) != 1 || one[0].ID != 2 {
		t.Errorf("selectKernels(2) = %v, %v", one, err)
	}
	if _, err := selectKernels(99); err == nil {
		t.Error("selectKernels accepted an unknown benchmark number")
	}
}

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		r.Close()
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// captureStderr runs f with stderr redirected and returns what it printed.
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	done := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		r.Close()
		done <- string(data)
	}()
	ferr := f()
	w.Close()
	os.Stderr = old
	return <-done, ferr
}

// The exit-path tests pin the shared error return: no subcommand or usage
// path calls os.Exit itself, so run() is testable end to end and deferred
// cleanup always executes.

func TestRunUnknownCommand(t *testing.T) {
	out, err := captureStderr(t, func() error { return run([]string{"frobnicate"}) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("run(frobnicate) = %v, want errUsage", err)
	}
	if !strings.Contains(out, `unknown command "frobnicate"`) || !strings.Contains(out, "usage: repro") {
		t.Errorf("unknown-command stderr:\n%s", out)
	}
}

func TestRunNoArgs(t *testing.T) {
	out, err := captureStderr(t, func() error { return run(nil) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("run() = %v, want errUsage", err)
	}
	if !strings.Contains(out, "usage: repro") {
		t.Errorf("no-args stderr:\n%s", out)
	}
}

func TestRunHelp(t *testing.T) {
	for _, arg := range []string{"help", "-h", "--help"} {
		out, err := captureStderr(t, func() error { return run([]string{arg}) })
		if err != nil {
			t.Errorf("run(%s) = %v, want nil", arg, err)
		}
		if !strings.Contains(out, "usage: repro") {
			t.Errorf("%s stderr:\n%s", arg, out)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	_, err := captureStderr(t, func() error { return run([]string{"analytic", "-bogus"}) })
	if !errors.Is(err, errUsage) {
		t.Fatalf("run(analytic -bogus) = %v, want errUsage", err)
	}
}

func TestRunHelpFlag(t *testing.T) {
	_, err := captureStderr(t, func() error { return run([]string{"analytic", "-h"}) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(analytic -h) = %v, want flag.ErrHelp", err)
	}
}

func TestRunDispatches(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"analytic", "-maxn", "2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Section 5") {
		t.Errorf("run(analytic) output:\n%s", out)
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{flag.ErrHelp, 0},
		{errUsage, 2},
		{errors.New("boom"), 1},
	}
	for _, c := range cases {
		code := 0
		out, _ := captureStderr(t, func() error { code = exitCode(c.err); return nil })
		if code != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, code, c.want)
		}
		if c.want == 1 && !strings.Contains(out, "repro: boom") {
			t.Errorf("runtime failure not reported on stderr: %q", out)
		}
	}
}

func TestCmdServeBadAddr(t *testing.T) {
	if err := cmdServe([]string{"-addr", "256.256.256.256:0", "-cache", ""}); err == nil {
		t.Error("serve accepted an unusable listen address")
	}
}

// The subcommand smoke tests exercise flag parsing and dispatch end to end
// on tiny datasets; output correctness is covered by the package tests.

func TestCmdBenchSmoke(t *testing.T) {
	out, err := capture(t, func() error { return cmdBench([]string{"-kernel", "2", "-n", "8"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "quickSort") || !strings.Contains(out, "ok") {
		t.Errorf("bench output:\n%s", out)
	}
}

func TestCmdILPSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdILP([]string{"-kernel", "10", "-sizes", "8", "-workers", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig. 7") {
		t.Errorf("ilp output:\n%s", out)
	}
}

func TestCmdMachineSmoke(t *testing.T) {
	for _, args := range [][]string{
		{"-kernel", "10", "-n", "8", "-cores", "2"},
		{"-kernel", "10", "-n", "8", "-cores", "2", "-dense"},
	} {
		out, err := capture(t, func() error { return cmdMachine(args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(out, "rax and memory match emulator") {
			t.Errorf("machine output for %v:\n%s", args, out)
		}
	}
}

func TestCmdAnalyticSmoke(t *testing.T) {
	out, err := capture(t, func() error { return cmdAnalytic([]string{"-maxn", "3"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Section 5") {
		t.Errorf("analytic output:\n%s", out)
	}
}

func TestCmdSweepSmoke(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "s.jsonl")
	args := []string{"-kernels", "10", "-sizes", "8", "-cores", "1,2",
		"-cache", filepath.Join(dir, "cache"), "-o", jsonl}
	out, err := capture(t, func() error { return cmdSweep(args) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "benchmark") {
		t.Errorf("sweep output:\n%s", out)
	}
	if fi, err := os.Stat(jsonl); err != nil || fi.Size() == 0 {
		t.Errorf("sweep JSONL missing or empty: %v", err)
	}
	// Diff mode over the file we just produced: all speedups 1.00.
	out, err = capture(t, func() error {
		return cmdSweep([]string{"-baseline", jsonl, "-against", jsonl})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep diff") {
		t.Errorf("sweep diff output:\n%s", out)
	}
}

func TestCmdFuzzSmoke(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error {
		return cmdFuzz([]string{"-count", "6", "-workers", "2", "-o", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "programs agree across all substrates") {
		t.Errorf("fuzz output:\n%s", out)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Errorf("clean campaign wrote reproducers: %v, %v", ents, err)
	}
}

func TestCmdFuzzUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-count", "-1"},
		{"-count", "0"}, // unbounded needs -duration
		{"-workers", "-2"},
	} {
		_, err := captureStderr(t, func() error { return cmdFuzz(args) })
		if !errors.Is(err, errUsage) {
			t.Errorf("fuzz %v = %v, want errUsage", args, err)
		}
	}
}

func TestCmdBenchSimSmoke(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_machine.json")
	out, err := capture(t, func() error {
		return cmdBenchSim([]string{"-quick", "-o", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "speedup") {
		t.Errorf("bench-sim output:\n%s", out)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("bench-sim report missing or empty: %v", err)
	}
	out, err = capture(t, func() error { return cmdBenchSim([]string{"-verify", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bench-machine-v3") {
		t.Errorf("bench-sim -verify output:\n%s", out)
	}
	if err := cmdBenchSim([]string{"-verify", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("bench-sim -verify accepted a missing file")
	}
}
