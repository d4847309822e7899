package isa_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/isa"
	"repro/internal/minic"
	"repro/internal/pbbs"
	"repro/internal/progs"
)

var updateEmitted = flag.Bool("update", false, "rewrite testdata/emitted_digests.txt")

// emittedDigests holds one "<corpus> <instructions> <sha256>" line per
// corpus of compiled programs.
const emittedDigests = "testdata/emitted_digests.txt"

// queryDigest hashes what every operand query answers for one instruction:
// its classification, Flags write, register read and write lists (in
// order), address-register set and memory read and write operands.
func queryDigest(h hash.Hash, in *isa.Instruction) {
	mr, rok := in.MemRead()
	mw, wok := in.MemWrite()
	fmt.Fprintf(h, "%s|%d|%v|%v|%v|%b|%v %+v|%v %+v\n", in, in.Classify(), in.WritesFlags(),
		in.RegReads(nil), in.RegWrites(nil), in.AddrRegs(), rok, mr, wok, mw)
}

// emittedCorpora compiles every program the reproduction runs: each kernel
// in both modes at MinN and 64, the paper's listings, and the first 300
// fuzz programs in both modes.
func emittedCorpora(t *testing.T) map[string][]*isa.Program {
	t.Helper()
	c := map[string][]*isa.Program{}
	add := func(corpus string, p *isa.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", corpus, err)
		}
		c[corpus] = append(c[corpus], p)
	}
	modes := []minic.Mode{minic.ModeCall, minic.ModeFork}
	for _, k := range pbbs.Kernels() {
		for _, n := range []int{k.MinN, 64} {
			for _, mode := range modes {
				p, err := k.Build(n, mode)
				add("kernels", p, err)
			}
		}
	}
	v := progs.Vector(10)
	for _, b := range []func([]uint64) (*isa.Program, error){progs.BuildSumCall, progs.BuildSumFork, progs.BuildMaxFork} {
		p, err := b(v)
		add("progs", p, err)
	}
	for _, b := range []func(int) (*isa.Program, error){progs.BuildFibCall, progs.BuildFibFork} {
		p, err := b(10)
		add("progs", p, err)
	}
	for seed := uint64(1); seed <= 300; seed++ {
		src := fuzzgen.Generate(seed).Source
		for _, mode := range modes {
			p, err := minic.Compile(src, mode)
			add("fuzz", p, err)
		}
	}
	return c
}

// TestEmittedOperandQueries pins what compiled code sees from the operand
// queries: for every instruction of every program the compiler and the
// listings emit, the digest of Classify, WritesFlags, RegReads, RegWrites,
// AddrRegs, MemRead and MemWrite must match the one recorded in testdata.
// The dependence analyses, the ILP traces and the machine's renaming all
// read these queries, so a drift here changes simulated results. Run with
// -update to rewrite the digests deliberately.
func TestEmittedOperandQueries(t *testing.T) {
	corpora := emittedCorpora(t)
	var lines []string
	for _, corpus := range []string{"kernels", "progs", "fuzz"} {
		h := sha256.New()
		count := 0
		for _, p := range corpora[corpus] {
			for i := range p.Text {
				queryDigest(h, &p.Text[i])
				count++
			}
		}
		lines = append(lines, fmt.Sprintf("%s %d %x", corpus, count, h.Sum(nil)))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateEmitted {
		if err := os.WriteFile(emittedDigests, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(emittedDigests)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("operand-query digests drifted:\n--- recorded\n%s--- now\n%s", want, got)
	}
}
