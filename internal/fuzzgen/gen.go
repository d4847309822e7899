// Package fuzzgen is the differential-fuzzing subsystem: a seeded generator
// of terminating mini-C programs, an equivalence oracle over the three
// execution substrates (sequential emulator, idle-skip machine, dense
// machine) plus warm-Reset/pool re-runs, and a
// delta-debugging minimizer that shrinks failing programs to small
// reproducers. The native fuzz targets in fuzz_test.go and the `repro fuzz`
// subcommand are thin drivers over these three pieces.
package fuzzgen

import (
	"fmt"

	"repro/internal/minic"
)

// rng is a splitmix64 generator: tiny, fast, and — unlike math/rand —
// guaranteed to produce the same stream for the same seed on every Go
// version, so corpus seeds stay meaningful forever.
type rng struct{ s uint64 }

func newRng(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int      { return int(r.next() % uint64(n)) }
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// Program is one generated fuzz case.
type Program struct {
	// Seed reproduces the program: Generate(Seed) is deterministic.
	Seed uint64
	// Cores is the machine width the oracle should use, derived from Seed.
	Cores int
	// Source is the mini-C text. It always compiles in both modes and every
	// run terminates by construction: loops are `for` with constant trip
	// counts and protected counters, calls form an acyclic forward DAG, and
	// there is no `while`, recursion or unbounded construct to generate.
	Source string
}

// Budget constants: the generator charges every statement its dynamic
// execution count (nesting multiplies), so total dynamic work — and with it
// section counts and emulator steps — is bounded no matter what the seed
// dealt.
const (
	mainBudget   = 3000
	helperBudget = 500
)

// coreChoices are the machine widths fuzz cases run at — the small end of
// the paper's sweep, where scheduling corner cases (single core, non-power
// -of-two, ring wrap-around) live.
var coreChoices = []int{1, 2, 3, 4, 5, 8, 13, 16}

// interesting are boundary constants mixed into generated expressions.
var interesting = []uint64{
	0, 1, 2, 3, 5, 7, 8, 15, 16, 31, 63, 64, 127, 255,
	1 << 31, 1<<32 - 1, 1 << 62, 1<<63 - 1, 1 << 63, ^uint64(0),
}

type arrayInfo struct {
	name string
	size int64 // power of two, so indices mask with size-1
}

type helperInfo struct {
	name    string
	nparams int
	cost    int64 // dynamic statement cost of one invocation
}

type gen struct {
	r       *rng
	scalars []string // global scalar names
	arrays  []arrayInfo
	helpers []helperInfo // callable set: suffix of this slice (forward calls only)

	// Per-function state.
	vars      []string // readable+writable scalars in scope (params and locals)
	counters  []string // loop counters: readable, never written
	scopeMark []int    // vars length at each open scope
	nameSeq   int      // unique local-name counter
	loopDepth int
	callable  []helperInfo
	budget    int64
	mult      int64
	cost      int64 // dynamic cost accumulated for the current function
}

// Generate builds the fuzz case for a seed. Same seed, same program.
func Generate(seed uint64) *Program {
	r := newRng(seed)
	g := &gen{r: r}
	prog := minic.NewProgram()

	nScalar := 1 + r.intn(3)
	for i := 0; i < nScalar; i++ {
		name := fmt.Sprintf("g%d", i)
		ty := minic.LongType()
		if r.chance(30) {
			ty = minic.ULongType()
		}
		g.scalars = append(g.scalars, name)
		mustAdd(prog.AddGlobal(&minic.GlobalVar{Name: name, Type: ty, Init: uint64(r.intn(100))}))
	}
	nArr := 1 + r.intn(3)
	for i := 0; i < nArr; i++ {
		name := fmt.Sprintf("a%d", i)
		size := int64(4 << r.intn(3)) // 4, 8 or 16
		ty := minic.LongType()
		if r.chance(30) {
			ty = minic.ULongType()
		}
		g.arrays = append(g.arrays, arrayInfo{name: name, size: size})
		mustAdd(prog.AddGlobal(&minic.GlobalVar{Name: name, Type: minic.ArrayType(ty, size)}))
	}

	// Helpers are generated last-to-first so that fi may call fj only for
	// j > i: the call graph is an acyclic forward DAG and recursion is
	// impossible by construction. In fork mode every call is a fork/endfork
	// section, so helpers are also the generator's parallel constructs.
	nFun := r.intn(4)
	funcs := make([]*minic.Function, nFun)
	for i := nFun - 1; i >= 0; i-- {
		name := fmt.Sprintf("f%d", i+1)
		nparams := r.intn(4)
		fn := &minic.Function{Name: name, Ret: minic.LongType()}
		g.startFunction(helperBudget, g.helpers)
		for p := 0; p < nparams; p++ {
			pname := fmt.Sprintf("p%d", p)
			fn.Params = append(fn.Params, &minic.LocalVar{Name: pname, Type: minic.LongType(), Param: p})
			g.vars = append(g.vars, pname)
		}
		fn.Body = g.block(2 + g.r.intn(4))
		fn.Body = append(fn.Body, &minic.Stmt{Kind: minic.StmtReturn, E: g.expr(2)})
		g.helpers = append([]helperInfo{{name: name, nparams: nparams, cost: g.cost + 1}}, g.helpers...)
		funcs[i] = fn
	}
	for _, fn := range funcs {
		mustAdd(prog.AddFunction(fn))
	}

	mn := &minic.Function{Name: "main", Ret: minic.LongType()}
	g.startFunction(mainBudget, g.helpers)
	mn.Body = g.block(3 + g.r.intn(5))
	mn.Body = append(mn.Body, g.checksumEpilogue()...)
	mustAdd(prog.AddFunction(mn))

	return &Program{
		Seed:   seed,
		Cores:  coreChoices[r.intn(len(coreChoices))],
		Source: minic.Format(prog),
	}
}

func mustAdd(err error) {
	if err != nil {
		panic("fuzzgen: generator produced an invalid program: " + err.Error())
	}
}

func (g *gen) startFunction(budget int64, callable []helperInfo) {
	g.vars = g.vars[:0]
	g.counters = g.counters[:0]
	g.scopeMark = g.scopeMark[:0]
	g.nameSeq = 0
	g.loopDepth = 0
	g.callable = callable
	g.budget = budget
	g.mult = 1
	g.cost = 0
}

// charge deducts the dynamic cost of one statement at the current loop
// multiplier; it reports false when the budget cannot afford it.
func (g *gen) charge(c int64) bool {
	c *= g.mult
	if c > g.budget {
		return false
	}
	g.budget -= c
	g.cost += c
	return true
}

// block generates n statements in a fresh scope.
func (g *gen) block(n int) []*minic.Stmt {
	g.scopeMark = append(g.scopeMark, len(g.vars))
	var out []*minic.Stmt
	for i := 0; i < n; i++ {
		if s := g.statement(); s != nil {
			out = append(out, s)
		}
	}
	mark := g.scopeMark[len(g.scopeMark)-1]
	g.scopeMark = g.scopeMark[:len(g.scopeMark)-1]
	g.vars = g.vars[:mark]
	return out
}

func (g *gen) statement() *minic.Stmt {
	switch k := g.r.intn(100); {
	case k < 20: // local declaration
		if !g.charge(1) {
			return nil
		}
		name := fmt.Sprintf("x%d", g.nameSeq)
		g.nameSeq++
		s := &minic.Stmt{
			Kind:     minic.StmtDecl,
			Decl:     &minic.LocalVar{Name: name, Type: minic.LongType(), Param: -1},
			DeclInit: g.expr(2),
		}
		g.vars = append(g.vars, name)
		return s
	case k < 45: // scalar assignment
		if !g.charge(1) {
			return nil
		}
		return &minic.Stmt{Kind: minic.StmtExpr, E: g.assign()}
	case k < 60: // array store
		if !g.charge(1) {
			return nil
		}
		a := g.arrays[g.r.intn(len(g.arrays))]
		return &minic.Stmt{Kind: minic.StmtExpr, E: &minic.Expr{
			Kind: minic.ExprAssign,
			L:    g.indexExpr(a),
			R:    g.expr(2),
		}}
	case k < 72: // if / if-else
		if !g.charge(1) || len(g.scopeMark) > 3 {
			return nil
		}
		s := &minic.Stmt{Kind: minic.StmtIf, E: g.expr(2), Body: g.block(1 + g.r.intn(3))}
		if g.r.chance(40) {
			s.Else = g.block(1 + g.r.intn(2))
		}
		if len(s.Body) == 0 {
			return nil // "if (c) {}" formats to an empty body; skip
		}
		return s
	case k < 85: // bounded for loop
		if g.loopDepth >= 2 || len(g.scopeMark) > 3 {
			return nil
		}
		trips := int64(1 + g.r.intn(6))
		if !g.charge(1 + trips) {
			return nil
		}
		ctr := fmt.Sprintf("i%d", g.nameSeq)
		g.nameSeq++
		s := &minic.Stmt{
			Kind: minic.StmtFor,
			Init: &minic.Stmt{Kind: minic.StmtDecl,
				Decl: &minic.LocalVar{Name: ctr, Type: minic.LongType(), Param: -1}, DeclInit: num(0)},
			E: &minic.Expr{Kind: minic.ExprBinary, Op: "<", L: varRef(ctr), R: num(uint64(trips))},
			Post: &minic.Stmt{Kind: minic.StmtExpr,
				E: &minic.Expr{Kind: minic.ExprAssign, Op: "+", L: varRef(ctr), R: num(1)}},
		}
		g.counters = append(g.counters, ctr)
		g.loopDepth++
		oldMult := g.mult
		g.mult *= trips
		s.Body = g.block(1 + g.r.intn(3))
		if g.loopDepth < 2 && g.r.chance(25) {
			kind := minic.StmtContinue
			if g.r.chance(50) {
				kind = minic.StmtBreak
			}
			s.Body = append(s.Body, &minic.Stmt{Kind: minic.StmtIf,
				E:    g.expr(1),
				Body: []*minic.Stmt{{Kind: kind}},
			})
		}
		g.mult = oldMult
		g.loopDepth--
		g.counters = g.counters[:len(g.counters)-1]
		if len(s.Body) == 0 {
			s.Body = []*minic.Stmt{{Kind: minic.StmtExpr, E: g.assign()}}
		}
		return s
	default: // call a helper (statement or assigned), if one is affordable
		if call := g.callExpr(); call != nil {
			if g.r.chance(50) && len(g.writableScalars()) > 0 {
				return &minic.Stmt{Kind: minic.StmtExpr, E: &minic.Expr{
					Kind: minic.ExprAssign, L: g.writableScalar(), R: call}}
			}
			return &minic.Stmt{Kind: minic.StmtExpr, E: call}
		}
		if !g.charge(1) {
			return nil
		}
		return &minic.Stmt{Kind: minic.StmtExpr, E: g.assign()}
	}
}

// callExpr builds a call to an affordable helper, or nil.
func (g *gen) callExpr() *minic.Expr {
	if len(g.callable) == 0 {
		return nil
	}
	h := g.callable[g.r.intn(len(g.callable))]
	if !g.charge(h.cost) {
		return nil
	}
	e := &minic.Expr{Kind: minic.ExprCall, Name: h.name}
	for i := 0; i < h.nparams; i++ {
		e.Args = append(e.Args, g.expr(1))
	}
	return e
}

// writableScalars lists the assignable names in scope: globals and locals,
// never loop counters.
func (g *gen) writableScalars() []string {
	return append(append([]string{}, g.scalars...), g.vars...)
}

func (g *gen) writableScalar() *minic.Expr {
	ws := g.writableScalars()
	return varRef(ws[g.r.intn(len(ws))])
}

// assign builds a (possibly compound) scalar assignment expression.
func (g *gen) assign() *minic.Expr {
	e := &minic.Expr{Kind: minic.ExprAssign, L: g.writableScalar(), R: g.expr(2)}
	if g.r.chance(40) {
		// The grammar's compound forms are += -= *= /= %=; exclude / and %,
		// which would need the same nonzero-divisor guard for nothing the
		// plain form lacks.
		ops := []string{"+", "-", "*"}
		e.Op = ops[g.r.intn(len(ops))]
	}
	return e
}

// indexExpr builds a masked array access: a[e & (size-1)] is always in
// bounds because sizes are powers of two.
func (g *gen) indexExpr(a arrayInfo) *minic.Expr {
	return &minic.Expr{
		Kind: minic.ExprIndex,
		L:    varRef(a.name),
		R: &minic.Expr{Kind: minic.ExprBinary, Op: "&",
			L: g.expr(1), R: num(uint64(a.size - 1))},
	}
}

// expr builds an expression of bounded depth. All readable names are in
// scope and every divisor is forced odd, so the result always compiles and
// never faults.
func (g *gen) expr(depth int) *minic.Expr {
	if depth <= 0 || g.r.chance(30) {
		return g.leaf()
	}
	switch k := g.r.intn(100); {
	case k < 15: // unary
		ops := []string{"-", "~", "!"}
		return &minic.Expr{Kind: minic.ExprUnary, Op: ops[g.r.intn(len(ops))], L: g.expr(depth - 1)}
	case k < 75: // binary
		ops := []string{"+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%",
			"<", "<=", ">", ">=", "==", "!=", "&&", "||"}
		op := ops[g.r.intn(len(ops))]
		l := g.expr(depth - 1)
		r := g.expr(depth - 1)
		if op == "/" || op == "%" {
			// Both substrates fault identically on a zero divisor, so a
			// division fault is not a divergence — just a wasted case.
			// (e | 1) keeps every divisor nonzero.
			r = &minic.Expr{Kind: minic.ExprBinary, Op: "|", L: r, R: num(1)}
		}
		return &minic.Expr{Kind: minic.ExprBinary, Op: op, L: l, R: r}
	case k < 85: // ternary
		return &minic.Expr{Kind: minic.ExprCond,
			C: g.expr(depth - 1), L: g.expr(depth - 1), R: g.expr(depth - 1)}
	default:
		return g.leaf()
	}
}

func (g *gen) leaf() *minic.Expr {
	readable := append(append(append([]string{}, g.scalars...), g.vars...), g.counters...)
	switch k := g.r.intn(100); {
	case k < 35: // constant
		v := interesting[g.r.intn(len(interesting))]
		if g.r.chance(30) {
			v = uint64(g.r.intn(1000))
		}
		if g.r.chance(20) {
			return &minic.Expr{Kind: minic.ExprUnary, Op: "-", L: num(v)}
		}
		return num(v)
	case k < 75: // scalar variable
		return varRef(readable[g.r.intn(len(readable))])
	default: // array load
		a := g.arrays[g.r.intn(len(g.arrays))]
		return &minic.Expr{
			Kind: minic.ExprIndex,
			L:    varRef(a.name),
			R: &minic.Expr{Kind: minic.ExprBinary, Op: "&",
				L: varRef(readable[g.r.intn(len(readable))]), R: num(uint64(a.size - 1))},
		}
	}
}

// checksumEpilogue folds every array element and every global scalar into
// one value and returns it, so RAX alone witnesses the whole final state —
// on top of the oracle's word-by-word data-segment comparison.
func (g *gen) checksumEpilogue() []*minic.Stmt {
	out := []*minic.Stmt{{
		Kind:     minic.StmtDecl,
		Decl:     &minic.LocalVar{Name: "chk", Type: minic.LongType(), Param: -1},
		DeclInit: num(0),
	}}
	fold := func(e *minic.Expr) *minic.Expr {
		return &minic.Expr{Kind: minic.ExprAssign, L: varRef("chk"),
			R: &minic.Expr{Kind: minic.ExprBinary, Op: "+",
				L: &minic.Expr{Kind: minic.ExprBinary, Op: "*", L: varRef("chk"), R: num(31)},
				R: e}}
	}
	for i, a := range g.arrays {
		ctr := fmt.Sprintf("c%d", i)
		out = append(out, &minic.Stmt{
			Kind: minic.StmtFor,
			Init: &minic.Stmt{Kind: minic.StmtDecl,
				Decl: &minic.LocalVar{Name: ctr, Type: minic.LongType(), Param: -1}, DeclInit: num(0)},
			E: &minic.Expr{Kind: minic.ExprBinary, Op: "<", L: varRef(ctr), R: num(uint64(a.size))},
			Post: &minic.Stmt{Kind: minic.StmtExpr,
				E: &minic.Expr{Kind: minic.ExprAssign, Op: "+", L: varRef(ctr), R: num(1)}},
			Body: []*minic.Stmt{{Kind: minic.StmtExpr,
				E: fold(&minic.Expr{Kind: minic.ExprIndex, L: varRef(a.name), R: varRef(ctr)})}},
		})
	}
	for _, s := range g.scalars {
		out = append(out, &minic.Stmt{Kind: minic.StmtExpr, E: fold(varRef(s))})
	}
	return append(out, &minic.Stmt{Kind: minic.StmtReturn, E: varRef("chk")})
}

func num(v uint64) *minic.Expr    { return &minic.Expr{Kind: minic.ExprNum, Num: v} }
func varRef(n string) *minic.Expr { return &minic.Expr{Kind: minic.ExprVar, Name: n} }
