package bench

import (
	"fmt"
	"strings"
)

// DefaultTolerance is the relative idle-skip ns/cycle growth Compare accepts
// before declaring a regression.
const DefaultTolerance = 0.20

// Delta is one matched point of a Compare: the old and new ns-per-cycle
// figures of the schedulers and the relative change of the judged one.
type Delta struct {
	Kernel string
	N      int
	Cores  int
	// OldIdle/NewIdle (and the dense pair) are ns per simulated cycle. A leg
	// a report did not run is 0.
	OldIdle, NewIdle   float64
	OldDense, NewDense float64
	// Change is NewIdle/OldIdle - 1: negative is faster, positive slower.
	Change float64
	// Regressed marks points whose idle-skip ns/cycle grew past the
	// tolerance.
	Regressed bool
}

// Comparison is the outcome of matching a fresh report against a baseline.
type Comparison struct {
	Deltas []Delta
	// NewOnly counts measured points with no baseline counterpart (reported,
	// never a failure — grids may grow).
	NewOnly int
	// Invalid counts matched points whose baseline ns/cycle is not positive
	// (a hand-edited or schema-drifted file). They cannot be judged, so
	// Err() fails on them — a guard that cannot fire must not pass silently.
	Invalid int
	// Tolerance is the relative growth accepted before a point regresses.
	Tolerance float64
}

// Compare matches cur's points to old's by (kernel, n, cores) and computes
// per-point ns-per-cycle deltas. The comparison judges the idle-skip
// scheduler — the default path every sweep and serve simulation runs on;
// the dense oracle's figures are carried along for context only.
// A tolerance of 0 is honoured (any growth fails); negative selects
// DefaultTolerance.
func Compare(old, cur *Report, tolerance float64) *Comparison {
	if tolerance < 0 {
		tolerance = DefaultTolerance
	}
	type key struct {
		kernel string
		n      int
		cores  int
	}
	base := make(map[key]*Point, len(old.Points))
	for i := range old.Points {
		p := &old.Points[i]
		base[key{p.Kernel, p.N, p.Cores}] = p
	}
	c := &Comparison{Tolerance: tolerance}
	for i := range cur.Points {
		p := &cur.Points[i]
		o, ok := base[key{p.Kernel, p.N, p.Cores}]
		if !ok {
			c.NewOnly++
			continue
		}
		d := Delta{
			Kernel:   p.Kernel,
			N:        p.N,
			Cores:    p.Cores,
			OldIdle:  o.IdleSkipNsPerCycle,
			NewIdle:  p.IdleSkipNsPerCycle,
			OldDense: o.DenseNsPerCycle,
			NewDense: p.DenseNsPerCycle,
		}
		if d.OldIdle > 0 {
			d.Change = d.NewIdle/d.OldIdle - 1
			d.Regressed = d.Change > tolerance
		} else {
			c.Invalid++
		}
		c.Deltas = append(c.Deltas, d)
	}
	return c
}

// Regressions returns the regressed deltas.
func (c *Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Err returns a regression error naming the offending points, or nil. A
// baseline point that cannot be judged (non-positive ns/cycle) is an error
// too, so a corrupt baseline cannot make the guard pass vacuously.
func (c *Comparison) Err() error {
	if c.Invalid > 0 {
		return fmt.Errorf("bench: baseline has %d point(s) with non-positive idle-skip ns/cycle — malformed baseline, nothing to judge against", c.Invalid)
	}
	regs := c.Regressions()
	if len(regs) == 0 {
		return nil
	}
	var names []string
	for _, d := range regs {
		names = append(names, fmt.Sprintf("%s n=%d c%d (+%.0f%%)",
			d.Kernel, d.N, d.Cores, 100*d.Change))
	}
	return fmt.Errorf("bench: ns/cycle regressed beyond %.0f%% on %d point(s): %s",
		100*c.Tolerance, len(regs), strings.Join(names, ", "))
}

// Table renders the comparison benchstat-style: one row per matched point
// with old and new ns/cycle and the relative delta, idle-skip first (the
// judged scheduler), dense for context.
func (c *Comparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %5s %6s %12s %12s %8s %12s %12s\n",
		"benchmark", "n", "cores", "old-idle/c", "new-idle/c", "delta",
		"old-dense/c", "new-dense/c")
	for _, d := range c.Deltas {
		name := d.Kernel
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		mark := ""
		if d.Regressed {
			mark = "  REGRESSED"
		}
		// A leg a report did not run is 0 in the Delta; render it as "-" so
		// a big-N row (no dense leg) reads as absent, not as free.
		cell := func(v float64) string {
			if v <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", v)
		}
		fmt.Fprintf(&b, "%-28s %5d %6d %12.1f %12.1f %+7.1f%% %12s %12s%s\n",
			name, d.N, d.Cores, d.OldIdle, d.NewIdle, 100*d.Change,
			cell(d.OldDense), cell(d.NewDense), mark)
	}
	if c.NewOnly > 0 {
		fmt.Fprintf(&b, "(%d measured point(s) had no baseline counterpart)\n", c.NewOnly)
	}
	return b.String()
}
