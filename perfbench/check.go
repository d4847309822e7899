package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sweep"
)

// strip drops the host-time fields, leaving what must repeat exactly.
func strip(r sweep.Record) sweep.Record {
	r.Metrics = r.Metrics.StripTiming()
	return r
}

// digest hashes the timing-stripped records in order.
func digest(recs []sweep.Record) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range recs {
		_ = enc.Encode(strip(r)) // hashing into a sha256 cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

func totals(recs []sweep.Record) (cycles, noc int64) {
	for _, r := range recs {
		cycles += r.Cycles
		noc += r.Metrics.NocMessages
	}
	return cycles, noc
}

// Checker collects correctness failures; any failure fails the run.
type Checker struct{ Problems []string }

func (c *Checker) Failf(format string, args ...any) {
	c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
}

func (c *Checker) OK() bool { return len(c.Problems) == 0 }

// SameRecords requires got to equal want record for record, timing-stripped.
func (c *Checker) SameRecords(what string, got, want []sweep.Record) {
	if len(got) != len(want) {
		c.Failf("%s: %d records, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if strip(got[i]) != strip(want[i]) {
			c.Failf("%s: record %d (%s n=%d %s) differs from the engine path", what, i,
				want[i].Name, want[i].N, want[i].Config())
			return
		}
	}
}

// GridOrder requires recs to carry exactly pts, in order, without errors.
// Every record's checksum was checked against the kernel's reference by
// whichever engine measured it; a mismatch arrives here as Record.Err.
func (c *Checker) GridOrder(what string, recs []sweep.Record, pts []sweep.Point) (failed int) {
	if len(recs) != len(pts) {
		c.Failf("%s: %d records for %d points", what, len(recs), len(pts))
		return len(pts)
	}
	for i, r := range recs {
		switch {
		case r.Err != "":
			c.Failf("%s: %s n=%d %s: %s", what, r.Name, r.N, r.Config(), r.Err)
			failed++
		case r.Point != pts[i]:
			c.Failf("%s: record %d is %+v, want point %+v", what, i, r.Point, pts[i])
			failed++
		}
	}
	return failed
}

// Repeat requires the digest of recs under name to equal the digest an
// earlier run recorded under it in dir, recording it when none exists:
// timing-stripped records repeat exactly for one seed, across runs, traced
// and untraced, and across workloads that measure the same points.
func (c *Checker) Repeat(dir, name string, recs []sweep.Record) error {
	path := filepath.Join(dir, name)
	d := digest(recs)
	old, err := os.ReadFile(path)
	switch {
	case err == nil:
		if strings.TrimSpace(string(old)) != d {
			c.Failf("%s: records differ from an earlier run of the same seed", name)
		}
		return nil
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(d+"\n"), 0o644)
}

// Golden holds the exact outcome of each workload at the default seed.
type Golden struct {
	Seed      uint64                  `json:"seed"`
	Workloads map[string]GoldenTotals `json:"workloads"`
}

// GoldenTotals are one workload's exact totals and per-record cycles, in
// record order.
type GoldenTotals struct {
	SimCycles int64   `json:"simCycles"`
	NocMsgs   int64   `json:"nocMsgs"`
	Cycles    []int64 `json:"cycles"`
}

func goldenOf(recs []sweep.Record) GoldenTotals {
	g := GoldenTotals{Cycles: make([]int64, len(recs))}
	g.SimCycles, g.NocMsgs = totals(recs)
	for i, r := range recs {
		g.Cycles[i] = r.Cycles
	}
	return g
}

func readGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g Golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// Golden compares recs with the recorded default-seed outcome of workload.
func (c *Checker) Golden(g *Golden, workload string, recs []sweep.Record) {
	want, ok := g.Workloads[workload]
	if !ok {
		c.Failf("golden: no entry for %s", workload)
		return
	}
	got := goldenOf(recs)
	if got.SimCycles != want.SimCycles || got.NocMsgs != want.NocMsgs {
		c.Failf("golden: %s totals %d cycles / %d noc msgs, recorded %d / %d",
			workload, got.SimCycles, got.NocMsgs, want.SimCycles, want.NocMsgs)
	}
	if len(got.Cycles) != len(want.Cycles) {
		c.Failf("golden: %s has %d records, recorded %d", workload, len(got.Cycles), len(want.Cycles))
		return
	}
	for i := range got.Cycles {
		if got.Cycles[i] != want.Cycles[i] {
			c.Failf("golden: %s record %d (%s n=%d %s) ran %d cycles, recorded %d", workload, i,
				recs[i].Name, recs[i].N, recs[i].Config(), got.Cycles[i], want.Cycles[i])
			return
		}
	}
}

// recordGolden stores workload's outcome in the golden file at path.
func recordGolden(path string, seed uint64, workload string, recs []sweep.Record) error {
	g, err := readGolden(path)
	if errors.Is(err, fs.ErrNotExist) {
		g, err = &Golden{Seed: seed}, nil
	}
	if err != nil {
		return err
	}
	if g.Seed != seed {
		return fmt.Errorf("golden: %s holds seed %d, not %d", path, g.Seed, seed)
	}
	if g.Workloads == nil {
		g.Workloads = make(map[string]GoldenTotals)
	}
	g.Workloads[workload] = goldenOf(recs)
	// One line per workload keeps the file short and its diffs readable.
	names := make([]string, 0, len(g.Workloads))
	for name := range g.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "{\n \"seed\": %d,\n \"workloads\": {\n", g.Seed)
	for i, name := range names {
		data, err := json.Marshal(g.Workloads[name])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(names)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %s%s\n", name, data, sep)
	}
	b.WriteString(" }\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
