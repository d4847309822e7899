// Package machine implements a cycle-level simulator of the paper's core
// design and many-core execution model (Section 4):
//
//   - per-core six-stage pipeline: fetch-decode-&-partly-execute,
//     register-rename, execute-write-back, address-rename, memory-access,
//     retire — each stage handles one instruction per cycle;
//   - fork/endfork section management with the totally ordered section list
//     (a fork inserts the created continuation section immediately after the
//     creating section, which itself continues into the callee);
//   - distributed register renaming: a source that cannot be renamed locally
//     triggers a request that travels backwards along the section order until
//     a producer (or a cached copy) is found, and the value travels back;
//   - memory renaming through a per-section Memory Address Alias Table
//     (MAAT), with the call-level shortcut for positive-rsp-offset addresses;
//   - parallel retirement: each section retires in order independently; the
//     oldest section dumps its renamings to the data memory hierarchy (DMH).
//
// The simulator executes fork programs (no call/ret) and is validated
// against the sequential emulator: same final rax and same final memory.
//
// The simulated hot path is allocation-free in steady state: dynamic
// instructions and renaming slots come from arenas whose chunks a completed
// run hands back to process-wide free lists, sections and requests from
// per-machine free lists, the register alias table is a fixed array and the
// MAAT an open-addressed table with recycled backing (see pool.go), and the
// per-core queues reuse their buffers. Machine.Reset rewinds everything for
// another run on the same program without re-allocating.
package machine

import (
	"fmt"
	"math"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/noc"
)

// Config parameterises the machine.
type Config struct {
	// Cores is the number of cores. Must be >= 1.
	Cores int
	// Net is the on-chip network used to charge message latencies between
	// cores. Defaults to an ideal crossbar with hop latency 1, which
	// reproduces the paper's "3 cycles to reach the producer and return"
	// accounting of Fig. 10.
	Net noc.Network
	// CreateLatency is the section-creation message latency in cycles
	// (paper footnote 7: "the creation time of the forked section
	// (2 cycles)"). Defaults to 2.
	CreateLatency int64
	// Shortcut enables the call-level shortcut for renaming requests whose
	// address is rsp-based with a non-negative offset (§4.2). Default on
	// via DefaultConfig; disable for the ablation bench.
	Shortcut bool
	// MaxSectionsPerCore switches the host chooser from spreading to
	// packing: when > 0, a new section goes to the most loaded core that
	// still hosts fewer than this many live sections, filling cores up to
	// the cap before touching idle ones (locality over fetch spread). The
	// cap is soft: if every core is at the cap the least loaded core is
	// used anyway. 0 keeps the default least-loaded spreading.
	MaxSectionsPerCore int
	// Dense selects the reference dense scheduler, which visits every core,
	// stage and request on every cycle. The default (false) is the idle-skip
	// scheduler: each cycle visits only cores with runnable work, and when
	// nothing in the chip can act before a known future cycle the clock
	// jumps there directly. Both schedulers produce bit-identical results
	// (cycles, timings, message counts); dense exists as the oracle the
	// idle-skip cross-check tests and `repro bench-sim` compare against.
	Dense bool
	// StallLimit aborts the run when no architectural progress happens for
	// this many cycles (deadlock detector). Defaults to 10000.
	StallLimit int64
	// MaxCycles aborts runs longer than this. Defaults to 100M.
	MaxCycles int64
}

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:         cores,
		CreateLatency: 2,
		Shortcut:      true,
	}
}

// val is a register value with a presence bit (the paper's full/empty bits).
type val struct {
	v    uint64
	full bool
}

// readyCell is a producer's ready-time word (0 = not yet produced; real
// cycles start at 1) together with the head of the intrusive list of queue
// entries parked on it. The idle-skip scheduler parks an issue-queue or
// load-store-queue entry whose blocking source cell is still 0 on that cell
// (Machine.park) instead of re-polling it every cycle; every write of a
// ready cell goes through Machine.unpark, which puts the parked entries back
// on their queues in the same statement sequence.
type readyCell struct {
	at   int64
	wait *DynInst
}

// producer is anything a renamed source can wait on: an in-flight
// instruction's register result, a store's memory value, a slot filled by a
// remote renaming response, or an immediately available creation-copy value.
// Every one of those reduces to the same two words, so a producer simply
// points at them: the ready cell and the value cell. An instruction's
// register result points into its wrAt/wrVal cells, a store's memory value
// at its tMA/storeVal fields, a renaming response at its slot. Earlier
// representations (an interface with dynamic dispatch, then a 40-byte
// tagged union with a kind switch) both showed up at the top of the CPU
// profile; two direct loads do not.
type producer struct {
	t *readyCell
	v *uint64
}

func slotProd(sl *slot) producer { return producer{t: &sl.readyCell, v: &sl.v} }
func regProd(d *DynInst, r isa.Reg) producer {
	i := d.wrSlot(r)
	return producer{t: &d.wrAt[i], v: &d.wrVal[i]}
}
func memProd(d *DynInst) producer { return producer{t: &d.tMA, v: &d.storeVal} }

// constProd returns an already-available producer (a creation-message
// register copy), backed by a pre-filled arena slot.
func (m *Machine) constProd(v uint64, at int64) producer {
	sl := m.slots.alloc()
	sl.v = v
	sl.at = at
	return slotProd(sl)
}

// valid reports whether p holds a producer at all.
func (p *producer) valid() bool { return p.t != nil }

// readyAt returns the cycle the value became available, or -1 if not yet
// available. A consumer stage running at cycle c may use the value when
// readyAt() >= 0 && readyAt() < c.
func (p *producer) readyAt() int64 {
	if t := p.t.at; t != 0 {
		return t
	}
	return -1
}

// value returns the produced value; meaningful once readyAt() >= 0.
func (p *producer) value() uint64 { return *p.v }

// slot is a shared fill cell: renaming-request caches (the paper's
// "destination d serves as a caching of the missing source") and remotely
// fetched memory words. Slots are arena-allocated.
type slot struct {
	v uint64
	readyCell
}

// fill publishes a renaming response's value, ready at cycle at, and wakes
// the entries parked on the slot.
func (m *Machine) fill(s *slot, v uint64, at int64) {
	s.v = v
	s.at = at
	m.unpark(&s.readyCell)
}

// srcRef is one resolved register source of an instruction.
type srcRef struct {
	prod producer
	reg  isa.Reg
	addr bool // true when the register only feeds the address computation
}

// maxSrcs bounds the register sources of one instruction after
// deduplication (the widest case is divq with a memory destination: rax,
// rdx, base, index).
const maxSrcs = 4

// maxWr bounds the architectural registers one instruction writes: a
// destination plus Flags, or rax plus rdx for the divides.
const maxWr = 2

// DynInst is one dynamic instruction in flight. DynInsts are arena-allocated
// (a chunked arena, pool.go) and recycled wholesale when the run completes.
type DynInst struct {
	Sec   *Section
	Idx   int // ordinal within the section
	IP    int64
	In    *isa.Instruction
	Level int32 // call level at this instruction

	class           isa.Class
	computedAtFetch bool
	nsrcs           uint8
	// ewSrcIdx/maSrcIdx are the wake computations' source cursors (see
	// ewSrcMax below), declared here to pack with the other small fields.
	ewSrcIdx, maSrcIdx uint8
	// branch outcome, resolved at fetch or EW
	taken, resolved bool
	nextIP          int64

	srcs [maxSrcs]srcRef
	// Register-result cells: wrRegs names the (at most maxWr) registers the
	// instruction writes, wrVal/wrAt their values and ready cycles (0 = not
	// yet produced; real cycles start at 1). Cells are claimed
	// find-or-create by wrSlot — at fetch for in-stage computed results, at
	// rename for the alias-table producers — and their wrAt/wrVal words are
	// exactly what regProd points consumers at. Two cells instead of the
	// earlier [NumRegs] arrays: the arrays made DynInst so large that
	// zeroing and GC-scanning the arena dominated fork-heavy workloads.
	wrRegs [maxWr]isa.Reg
	nwr    uint8
	wrAt   [maxWr]readyCell
	wrVal  [maxWr]uint64

	addr     uint64 // effective address (mem ops), set at EW
	storeVal uint64 // store data, set at MA
	memSrc   producer

	// For fork instructions: the created section. Its non-volatile
	// registers that were not computed at the fork point (not full in its
	// creation-message copies) are linked to the creator's current
	// producers at the rename stage.
	createdSec *Section

	// Stage timestamps (0 = not yet / not applicable): fetch-decode,
	// register-rename, execute-write-back, address-rename, memory-access,
	// retire. These are the six columns of the paper's Fig. 10. tMA is a
	// ready cell because it doubles as a store's memory-value ready time.
	tFD, tRR, tEW, tAR int64
	tMA                readyCell
	tRET               int64

	// ewWakeAt/maWakeAt cache the earliest cycle the instruction can pass
	// the execute-write-back / memory-access stage (0 = not yet known).
	// Producer ready times are write-once, so a known wake never changes
	// and the per-cycle readiness poll collapses to one comparison.
	ewWakeAt, maWakeAt int64
	// ewSrcMax/ewSrcIdx (and the ma pair) make the wake computation
	// incremental while some source is still unready: sources are confirmed
	// ready left to right, the running maximum of their ready times is kept,
	// and a confirmed source is never polled again — only the first
	// still-unready source is re-polled per visit. Exact for the same
	// write-once reason the whole-wake cache is. A max of 0 means the
	// accumulation has not started (real ready times are >= 1); for the ma
	// pair index 0 is the loaded-value producer, index i+1 is srcs[i].
	ewSrcMax, maSrcMax int64
	// ewBlock/maBlock point at the ready cell of the source the last wake
	// computation blocked on. While that cell is still 0 the instruction
	// cannot possibly pass the stage. Under the idle-skip scheduler it is
	// then parked on that cell's waiter list, linked through nextWait: an
	// entry is off its queue only while its blocking cell is 0, and the
	// write of the cell puts it back synchronously (Machine.unpark). An
	// instruction sits in at most one of the issue and load-store queues
	// (it enters the load-store queue after leaving the issue queue), so one
	// link serves both.
	ewBlock, maBlock *readyCell
	nextWait         *DynInst
}

func (d *DynInst) isMem() bool { return d.class == isa.ClassLoad || d.class == isa.ClassStore }

// ewBlocked reports that d provably cannot pass the execute-write-back
// stage this cycle: no cached wake, and the source the last wake
// computation blocked on is still unproduced. This is the single
// definition of the blocked test — selectEW parks such an entry on
// d.ewBlock and nextWake skips it — and the exactness of the idle-skip
// scheduler rests on it, so it must not be re-derived at call sites.
func (d *DynInst) ewBlocked() bool {
	return d.ewWakeAt == 0 && d.ewBlock != nil && d.ewBlock.at == 0
}

// maBlocked is ewBlocked's memory-access-stage counterpart.
func (d *DynInst) maBlocked() bool {
	return d.maWakeAt == 0 && d.maBlock != nil && d.maBlock.at == 0
}

// done reports whether the instruction has produced everything it will.
func (d *DynInst) done() bool {
	if d.isMem() {
		return d.tMA.at != 0
	}
	return d.tEW != 0
}

// Section is one instruction flow, created by a fork (or the initial flow).
// Section shells are pooled per machine and recycled when the run is over.
type Section struct {
	ID        int64 // creation sequence number
	Pos       int   // current position in the machine's total order
	Core      int   // hosting core, -1 until the creation message is accepted
	BaseLevel int32

	Insts []*DynInst

	// rat is the register alias table (+ request caches + fork copies): a
	// fixed array indexed by register, with the producer's kind as the
	// validity mark. The previous map[isa.Reg]producer paid map hashing on
	// every rename of a 17-entry keyspace.
	rat  [isa.NumRegs]producer
	maat maat             // memory address alias table (8-byte words)
	arQ  fifo[*DynInst]   // memory ops awaiting in-order address renaming
	init [isa.NumRegs]val // creation-message register copies

	startIP   int64
	fetchDone bool
	renamed   int // instructions past the rename stage
	memOps    int // memory ops fetched
	memRen    int // memory ops address-renamed
	retired   int
	dumped    bool

	createdAt  int64 // fork fetch cycle
	firstFetch int64
	curLevel   int32 // fetch-time call level cursor
	fetchIP    int64
	stalled    *DynInst         // unresolved control instruction blocking fetch
	rfSave     [isa.NumRegs]val // fetch RF snapshot while suspended
}

func (s *Section) fullyRenamed() bool {
	return s.fetchDone && s.renamed == len(s.Insts)
}

func (s *Section) memRenameDone() bool {
	return s.fullyRenamed() && s.memRen == s.memOps
}

func (s *Section) fullyRetired() bool {
	return s.fetchDone && s.retired == len(s.Insts)
}

// sectionMsg is the section-creation message a fork sends to a hosting core.
// Messages live as values inside the per-core FIFO ring — no per-message
// allocation.
type sectionMsg struct {
	sec       *Section
	deliverAt int64
}

// Core is one core's pipeline state. The queues are reusable-buffer
// structures: the FIFOs slide instead of re-slicing, and the issue/load-store
// queues delete by swap (their storage order carries no meaning — selection
// orders by the explicit (section position, ordinal) comparison). Under the
// idle-skip scheduler iq and lsq hold only entries that are not parked on a
// ready cell (see readyCell).
type Core struct {
	id        int
	rf        [isa.NumRegs]val // fetch-stage register file
	fetch     *Section
	pending   fifo[sectionMsg] // FIFO of section-creation messages
	suspended fifo[*Section]   // stalled sections set aside to fetch pending ones
	renameQ   fifo[*DynInst]
	iq        []*DynInst // waiting execution (unordered)
	lsq       []*DynInst // waiting memory access (unordered)
	live      int        // hosted, not fully retired sections
	fetched   int64      // statistics
}

// Machine is the whole chip.
type Machine struct {
	cfg   Config
	prog  *isa.Program
	cores []*Core
	order []*Section // total section order (dumped sections retained)
	reqs  []*request
	dmh   *emu.Memory
	arch  [isa.NumRegs]uint64

	cycle     int64
	nextSecID int64
	rrHost    int // round-robin tiebreak for host choice
	oldest    int // index into order of the first undumped section
	progress  int64
	lastMove  int64
	hltSeen   bool
	err       error // first fault (bad fetch, div by zero, ...)
	// quietMove records a state change that moves no counter (today only the
	// fetch stage suspending a stalled section); the idle-skip scheduler must
	// not jump the clock over a cycle that mutated anything.
	quietMove bool

	pendingCreates   int
	regReqs, memReqs int64
	// selVisits counts the queue entries the EW/MA issue selection visited:
	// a host-independent measure of the selection work, for the tests that
	// keep it from growing with the queue length.
	selVisits int64

	// retirePick/arPick are the idle-skip scheduler's per-core work lists for
	// the two stages that scan the section order: one pass over the live
	// sections fills them, replacing the dense loop's per-core scans. An
	// entry is valid only when its generation matches pickGen — bumping the
	// generation invalidates every pick without rewriting two pointer
	// arrays each cycle.
	retirePick, arPick []*Section
	retireGen, arGen   []int64
	pickGen            int64

	// NoC message accounting: section-creation messages sent by forks,
	// request-forwarding messages between cores, value responses travelling
	// back, and requests answered by the committed state (DMH/loader).
	createMsgs, reqHops, respMsgs, dmhAnswers int64

	// Arenas, free lists and scratch buffers behind the allocation-free hot
	// path (pool.go). The free lists and buffers survive Reset, so a warmed
	// machine re-runs without growing the heap; the arenas hand their chunks
	// to the process-wide lists when a run completes and take them back as
	// the next run allocates.
	dyns     arena[DynInst]
	slots    arena[slot]
	secFree  []*Section
	maatFree [][]maatEntry
	reqFree  []*request
	readBuf  []isa.Reg
	writeBuf []isa.Reg
}

// DMH returns the data memory hierarchy (the committed memory), for
// inspection after Run.
func (m *Machine) DMH() *emu.Memory { return m.dmh }

// withDefaults returns cfg with every zero field replaced by its default.
// New applies it on construction; the warm pool (warmpool.go) applies it to
// requested configurations so they compare against the normalized one a
// pooled machine carries.
func (cfg Config) withDefaults() Config {
	if cfg.Net == nil {
		cfg.Net = noc.NewCrossbar(cfg.Cores, 1)
	}
	if cfg.CreateLatency == 0 {
		cfg.CreateLatency = 2
	}
	if cfg.StallLimit == 0 {
		cfg.StallLimit = 10000
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 100 << 20
	}
	return cfg
}

// New prepares a machine for prog.
func New(prog *isa.Program, cfg Config) (*Machine, error) {
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("machine: need at least one core")
	}
	cfg = cfg.withDefaults()
	for i := range prog.Text {
		switch prog.Text[i].Op {
		case isa.CALL, isa.RET:
			return nil, fmt.Errorf("machine: instruction %d is %s; the machine executes fork programs (use internal/forkify or mini-C -fork mode)", i, prog.Text[i].Op)
		}
	}
	m := &Machine{cfg: cfg, prog: prog, dyns: arena[DynInst]{list: &dynChunks}, slots: arena[slot]{list: &slotChunks}}
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &Core{id: i})
	}
	m.retirePick = make([]*Section, cfg.Cores)
	m.arPick = make([]*Section, cfg.Cores)
	m.retireGen = make([]int64, cfg.Cores)
	m.arGen = make([]int64, cfg.Cores)
	m.readBuf = make([]isa.Reg, 0, 2*isa.NumRegs)
	m.writeBuf = make([]isa.Reg, 0, 2*isa.NumRegs)
	m.dmh = emu.NewMemory()
	m.boot()
	return m, nil
}

// Reset rewinds the machine to its post-New state for another run of the
// same program, recycling every per-run object: sections, dynamic
// instructions, slots, requests, alias-table backings and queue buffers all
// return to the machine's pools, and the committed memory is re-seeded with
// the program's data segment. Inputs injected into the DMH must be
// re-injected by the caller, exactly as after New. A warmed machine
// (one completed Run) re-runs with no steady-state heap allocation — the
// property pinned by internal/bench's allocation-regression tests.
func (m *Machine) Reset() {
	m.releaseRun()
	m.dyns.reset()
	m.slots.reset()
	for i := range m.retireGen {
		m.retireGen[i], m.arGen[i] = 0, 0
		m.retirePick[i], m.arPick[i] = nil, nil
	}
	m.pickGen = 0
	m.cycle, m.nextSecID, m.lastMove, m.progress = 0, 0, 0, 0
	m.rrHost, m.oldest = 0, 0
	m.hltSeen, m.quietMove = false, false
	m.err = nil
	m.pendingCreates = 0
	m.regReqs, m.memReqs = 0, 0
	m.selVisits = 0
	m.createMsgs, m.reqHops, m.respMsgs, m.dmhAnswers = 0, 0, 0, 0
	m.dmh.Reset()
	m.boot()
}

// releaseRun returns the run's sections and requests to the machine's free
// lists and empties the core queues. Afterwards the machine holds no
// reference into its arenas: the sections' instruction lists, alias tables,
// stalled instructions and address-rename queues, the rename, issue and
// load-store queues, and the requests' slots are all scrubbed.
func (m *Machine) releaseRun() {
	for _, s := range m.order {
		m.releaseSection(s)
	}
	clear(m.order)
	m.order = m.order[:0]
	for _, c := range m.cores {
		c.rf = [isa.NumRegs]val{}
		c.fetch = nil
		c.pending.Reset()
		c.suspended.Reset()
		c.renameQ.Reset()
		clear(c.iq)
		c.iq = c.iq[:0]
		clear(c.lsq)
		c.lsq = c.lsq[:0]
		c.live = 0
		c.fetched = 0
	}
	for _, r := range m.reqs {
		m.releaseRequest(r)
	}
	clear(m.reqs)
	m.reqs = m.reqs[:0]
}

// finish builds the Result of a completed run and then recycles the run's
// per-instruction memory: once the Result has copied out everything it
// needs, the machine drops its references into the arenas (releaseRun) and
// the arenas hand their chunks to the process-wide free lists for the next
// run, on this machine or any other. A failed run skips this and keeps its
// chunks until Reset.
func (m *Machine) finish() *Result {
	r := m.result()
	m.releaseRun()
	m.dyns.release()
	m.slots.release()
	return r
}

// boot seeds the committed state and the initial section, the shared tail of
// New and Reset.
func (m *Machine) boot() {
	m.dmh.CopyIn(isa.DataBase, m.prog.Data)
	m.arch = [isa.NumRegs]uint64{}
	m.arch[isa.RSP] = isa.StackTop

	// The initial section: all registers full with the entry state.
	s := m.newSection(m.prog.Entry, 0, 0)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		s.init[r] = val{v: m.arch[r], full: true}
	}
	m.order = append(m.order, s)
	s.Pos = 0
	m.assignHost(s, 0)
}

func (m *Machine) newSection(startIP int64, baseLevel int32, createdAt int64) *Section {
	s := m.acquireSection()
	s.ID = m.nextSecID
	s.Core = -1
	s.BaseLevel = baseLevel
	s.startIP = startIP
	s.fetchIP = startIP
	s.curLevel = baseLevel
	s.createdAt = createdAt
	m.nextSecID++
	return s
}

// insertAfter places created immediately after creator in the total order
// (the paper's §2: "new sections are inserted in place in the list of
// existing sections ... building the sequential trace of the run").
func (m *Machine) insertAfter(creator, created *Section) {
	at := creator.Pos + 1
	m.order = append(m.order, nil)
	copy(m.order[at+1:], m.order[at:])
	m.order[at] = created
	for i := at; i < len(m.order); i++ {
		m.order[i].Pos = i
	}
}

// prevOf returns the section immediately before s in the total order, or nil.
func (m *Machine) prevOf(s *Section) *Section {
	if s.Pos == 0 {
		return nil
	}
	return m.order[s.Pos-1]
}

// nextOf returns the section immediately after s, or nil.
func (m *Machine) nextOf(s *Section) *Section {
	if s.Pos+1 >= len(m.order) {
		return nil
	}
	return m.order[s.Pos+1]
}

// chooseHost picks the hosting core for a new section (the paper leaves
// load balancing out of scope). The default policy spreads: the least
// loaded core wins, round-robin on ties. With Config.MaxSectionsPerCore > 0
// the policy packs instead: the most loaded core still under the cap wins,
// so sections fill one core after another; when every core is at the cap
// the least loaded core is used (the cap is soft).
func (m *Machine) chooseHost() int {
	best, bestLoad := -1, int(^uint(0)>>1)
	packed, packedLoad := -1, -1
	n := len(m.cores)
	for i := 0; i < n; i++ {
		c := m.cores[(m.rrHost+i)%n]
		// live already counts sections whose creation message is still in
		// flight (assignHost increments it at assignment time).
		load := c.live
		if load < bestLoad {
			best, bestLoad = c.id, load
		}
		if m.cfg.MaxSectionsPerCore > 0 && load < m.cfg.MaxSectionsPerCore && load > packedLoad {
			packed, packedLoad = c.id, load
		}
	}
	if packed >= 0 {
		best = packed
	}
	m.rrHost = (best + 1) % n
	return best
}

func (m *Machine) assignHost(s *Section, deliverAt int64) {
	host := m.chooseHost()
	s.Core = host
	c := m.cores[host]
	c.live++
	c.pending.Push(sectionMsg{sec: s, deliverAt: deliverAt})
	m.pendingCreates++
}

// Run simulates until completion and returns the result. The default
// scheduler is idle-skip (see runIdleSkip), which parks blocked issue-queue
// and load-store-queue entries on their blocking producer cell;
// Config.Dense selects the reference dense loop, which re-scans every
// queued entry every cycle. Both produce bit-identical results.
func (m *Machine) Run() (*Result, error) {
	if m.cfg.Dense {
		return m.runDense()
	}
	return m.runIdleSkip()
}

// runDense is the reference scheduler: every cycle visits every core, every
// stage and every request, whether or not anything can make progress. It is
// kept as the oracle the idle-skip scheduler is cross-checked against.
func (m *Machine) runDense() (*Result, error) {
	for {
		if m.err != nil {
			return nil, m.err
		}
		if m.done() {
			return m.finish(), nil
		}
		m.cycle++
		if m.cycle > m.cfg.MaxCycles {
			return nil, fmt.Errorf("machine: exceeded %d cycles", m.cfg.MaxCycles)
		}
		before := m.progress
		for _, c := range m.cores {
			m.stageRetire(c)
			m.stageMA(c)
			m.stageAR(c)
			m.stageEW(c)
			m.stageRR(c)
			m.stageFD(c)
		}
		m.processRequests()
		m.dumpOldest()
		if m.progress != before {
			m.lastMove = m.cycle
		} else if m.cycle-m.lastMove > m.cfg.StallLimit {
			return nil, fmt.Errorf("machine: no progress for %d cycles at cycle %d: %s",
				m.cfg.StallLimit, m.cycle, m.stuckReport())
		}
	}
}

// runIdleSkip is the work-list-driven scheduler. Four observations make it
// exact (not approximate):
//
//   - The two stages that scan the whole section order per core (retire and
//     address rename) pick the oldest hosted section whose head is eligible,
//     and eligibility cannot change mid-cycle (a completion timestamp set
//     this cycle fails the strictly-older boundary either way), so one pass
//     over the live sections computes every core's pick up front (pickHeads)
//     — same choice, O(sections) instead of O(cores × sections).
//   - A core hosting no live section cannot act: every stage reads only the
//     core's own slots and queues, and all of them (the fetch slot, the
//     message FIFO, the suspension list, the rename/issue/load-store
//     queues) hold state of live hosted sections, so c.live == 0 — already
//     maintained incrementally for the host chooser — implies the core is
//     inert and is skipped with one comparison.
//   - If a whole cycle mutates nothing (no stage fired, no request moved,
//     no section was suspended or dumped), then the machine state at the
//     next cycle is identical and the earliest cycle at which anything can
//     act is decided purely by stored timestamps (stage completion times,
//     message delivery times, request availability, value-ready times).
//     nextWake enumerates every such timestamp, so the clock can jump
//     straight to the minimum — every skipped cycle is one the dense loop
//     would have spent doing nothing.
//   - An issue or load-store queue entry whose blocking source cell is still
//     0 cannot pass its stage, so selection parks it on that cell and no
//     longer visits it (park). Every write of a ready cell unparks its
//     entries synchronously, and a cell written at cycle t holds a ready
//     time >= t, so the entry is back on its queue before the first cycle
//     it could be eligible at; selection orders by (section position,
//     ordinal), never by queue position, so re-queuing changes no pick.
//
// The stall detector and the cycle cap are clamped into the jump so that
// pathological programs fail at the same cycle, with the same error, as
// under the dense loop.
func (m *Machine) runIdleSkip() (*Result, error) {
	acted := true
	for {
		if m.err != nil {
			return nil, m.err
		}
		if m.done() {
			return m.finish(), nil
		}
		if acted {
			m.cycle++
		} else {
			next := m.nextWake()
			if bound := m.lastMove + m.cfg.StallLimit + 1; next > bound {
				next = bound
			}
			if bound := m.cfg.MaxCycles + 1; next > bound {
				next = bound
			}
			m.cycle = next
		}
		if m.cycle > m.cfg.MaxCycles {
			return nil, fmt.Errorf("machine: exceeded %d cycles", m.cfg.MaxCycles)
		}
		before, hops := m.progress, m.reqHops
		m.quietMove = false
		m.pickHeads()
		for _, c := range m.cores {
			if c.live == 0 {
				continue
			}
			var rp, ap *Section
			if m.retireGen[c.id] == m.pickGen {
				rp = m.retirePick[c.id]
			}
			if m.arGen[c.id] == m.pickGen {
				ap = m.arPick[c.id]
			}
			if rp == nil && ap == nil && !coreActive(c) {
				continue
			}
			if rp != nil {
				m.retireApply(rp, rp.Insts[rp.retired])
			}
			m.stageMA(c)
			if ap != nil {
				m.arApply(c, ap, ap.arQ.Front())
			}
			m.stageEW(c)
			m.stageRR(c)
			m.stageFD(c)
		}
		m.processRequests()
		m.dumpOldest()
		acted = m.progress != before || m.reqHops != hops || m.quietMove
		if m.progress != before {
			m.lastMove = m.cycle
		} else if m.cycle-m.lastMove > m.cfg.StallLimit {
			return nil, fmt.Errorf("machine: no progress for %d cycles at cycle %d: %s",
				m.cfg.StallLimit, m.cycle, m.stuckReport())
		}
	}
}

// pickHeads fills the per-core retire and address-rename picks: for each
// core, the oldest hosted live section whose respective head is eligible
// this cycle. m.order[m.oldest:] is exactly the live sections in ascending
// position, so the first hit per core is the dense loop's min-position
// choice.
func (m *Machine) pickHeads() {
	m.pickGen++
	for _, s := range m.order[m.oldest:] {
		c := s.Core
		if m.retireGen[c] != m.pickGen && m.retireHead(s) != nil {
			m.retirePick[c] = s
			m.retireGen[c] = m.pickGen
		}
		if m.arGen[c] != m.pickGen && m.arHead(s) != nil {
			m.arPick[c] = s
			m.arGen[c] = m.pickGen
		}
	}
}

// coreActive reports whether any stage other than retire and address rename
// (which have explicit picks) could possibly act on c this cycle. Those
// stages read only the core's own slots and queues, so a core with none of
// that state is skipped without calling its stages.
func coreActive(c *Core) bool {
	return c.fetch != nil ||
		!c.pending.Empty() || !c.suspended.Empty() ||
		!c.renameQ.Empty() || len(c.iq) > 0 || len(c.lsq) > 0
}

// never is the wake time of work that is blocked on a value or condition not
// yet produced: it cannot become runnable without some other action first,
// and that action has its own wake entry.
const never = int64(math.MaxInt64)

// nextWake returns the earliest cycle at which anything in the machine could
// act, assuming nothing acted in the cycle just simulated (so every blocking
// condition is decided by stored timestamps alone). Entries may be
// conservative (too early just wastes a visit); they must never be late.
// Each entry mirrors one `... < m.cycle` / `... >= m.cycle` comparison in
// the stage and request code. Parked entries contribute nothing: they wait
// on a cell whose write is itself an action with its own wake entry.
func (m *Machine) nextWake() int64 {
	w := never
	wake := func(t int64) {
		if t <= m.cycle {
			t = m.cycle + 1 // anything due now can only act from cycle+1
		}
		if t < w {
			w = t
		}
	}
	for _, c := range m.cores {
		if c.live == 0 {
			// Every per-core wake source below is state of a live hosted
			// section.
			continue
		}
		if c.fetch != nil {
			if d := c.fetch.stalled; d != nil {
				if d.resolved && d.tEW > 0 {
					wake(d.tEW + 1) // branch redirect visible the cycle after EW
				}
			} else {
				wake(m.cycle + 1) // fetch in flight: one instruction per cycle
			}
		}
		if !c.pending.Empty() {
			wake(c.pending.Front().deliverAt + 1) // creation message consumable
		}
		for i, n := 0, c.suspended.Len(); i < n; i++ {
			if d := c.suspended.At(i).stalled; d != nil && d.resolved && d.tEW > 0 {
				wake(d.tEW + 1)
			}
		}
		if !c.renameQ.Empty() {
			wake(c.renameQ.Front().tFD + 1) // rename the cycle after fetch
		}
		for _, d := range c.iq {
			if d.ewBlocked() {
				continue // no wake until another action produces the source
			}
			wake(m.ewWake(d))
		}
		for _, d := range c.lsq {
			if d.maBlocked() {
				continue
			}
			wake(m.maWake(d))
		}
	}
	// Sections before m.oldest are dumped; later ones host the in-order
	// address-rename and retire heads.
	for _, s := range m.order[m.oldest:] {
		if s.arQ.Len() > 0 {
			if h := s.arQ.Front(); h.tEW > 0 {
				wake(h.tEW + 1)
			}
		}
		if s.retired < len(s.Insts) {
			h := s.Insts[s.retired]
			if h.done() {
				if h.isMem() {
					wake(h.tMA.at + 1)
				} else {
					wake(h.tEW + 1)
				}
			}
		}
	}
	for _, r := range m.reqs {
		if r.availableAt > m.cycle {
			wake(r.availableAt) // in flight: may act on arrival
			continue
		}
		// Waiting at its target for the producer's value (a target that is
		// not yet fully renamed, or a producer slot not yet filled, can only
		// change through another action, which has its own wake entry).
		if t := r.target; t != nil {
			var p *producer
			if r.kind == reqReg {
				if t.fullyRenamed() {
					if rp := &t.rat[r.reg]; rp.valid() {
						p = rp
					}
				}
			} else if t.memRenameDone() {
				p = t.maat.get(r.addr)
			}
			if p != nil {
				if at := p.readyAt(); at >= 0 {
					wake(at + 1) // export reads the value the cycle after
				}
			}
		}
	}
	return w
}

// ewWake returns the earliest cycle d can pass the execute-write-back stage
// (a stage boundary: the cycle after the last of its rename and relevant
// source-ready times), or never while a source value has not been produced
// yet. A known wake is cached on the instruction — producer ready times are
// write-once, so it cannot change.
func (m *Machine) ewWake(d *DynInst) int64 {
	if d.ewWakeAt != 0 {
		return d.ewWakeAt
	}
	if d.tRR == 0 {
		return never // not renamed yet: the rename-queue entry covers it
	}
	t := d.ewSrcMax
	if t == 0 {
		t = d.tRR
	}
	if !d.computedAtFetch || d.isMem() {
		mem := d.isMem()
		for int(d.ewSrcIdx) < int(d.nsrcs) {
			s := &d.srcs[d.ewSrcIdx]
			if mem && !s.addr {
				d.ewSrcIdx++
				continue
			}
			at := s.prod.readyAt()
			if at < 0 {
				d.ewSrcMax = t
				d.ewBlock = s.prod.t
				return never
			}
			if at > t {
				t = at
			}
			d.ewSrcIdx++
		}
	}
	d.ewWakeAt = t + 1
	return d.ewWakeAt
}

// maWake returns the earliest cycle d can pass the memory-access stage, or
// never while its loaded value or a source is not yet produced. A known wake
// is cached, like ewWake's.
func (m *Machine) maWake(d *DynInst) int64 {
	if d.maWakeAt != 0 {
		return d.maWakeAt
	}
	if d.tAR == 0 {
		return never // not address-renamed yet: the AR head entry covers it
	}
	t := d.maSrcMax
	if t == 0 {
		t = d.tAR
	}
	if d.maSrcIdx == 0 {
		if d.memSrc.valid() {
			at := d.memSrc.readyAt()
			if at < 0 {
				d.maSrcMax = t
				d.maBlock = d.memSrc.t
				return never
			}
			if at > t {
				t = at
			}
		}
		d.maSrcIdx = 1
	}
	for int(d.maSrcIdx) <= int(d.nsrcs) {
		p := &d.srcs[d.maSrcIdx-1].prod
		at := p.readyAt()
		if at < 0 {
			d.maSrcMax = t
			d.maBlock = p.t
			return never
		}
		if at > t {
			t = at
		}
		d.maSrcIdx++
	}
	d.maWakeAt = t + 1
	return d.maWakeAt
}

func (m *Machine) done() bool {
	if !m.hltSeen || m.pendingCreates > 0 {
		return false
	}
	return m.oldest >= len(m.order)
}

// stuckReport summarises pipeline state for deadlock diagnostics.
func (m *Machine) stuckReport() string {
	s := ""
	for _, sec := range m.order {
		if sec.dumped {
			continue
		}
		s += fmt.Sprintf("[sec %d core %d pos %d: %d insts fetchDone=%v renamed=%d retired=%d memRen=%d/%d stalled=%v] ",
			sec.ID, sec.Core, sec.Pos, len(sec.Insts), sec.fetchDone, sec.renamed, sec.retired, sec.memRen, sec.memOps, sec.stalled != nil)
	}
	s += fmt.Sprintf("reqs=%d", len(m.reqs))
	return s
}

// dumpOldest retires the oldest fully retired sections into the DMH and the
// architectural register file (the paper's §4.2 footnote 6: "the oldest
// section ... dumps its renamings to the data memory hierarchy").
func (m *Machine) dumpOldest() {
	for m.oldest < len(m.order) {
		s := m.order[m.oldest]
		if !s.fullyRetired() {
			return
		}
		// A section with pending incoming requests keeps its tables until
		// they are answered.
		if m.hasRequestsAt(s) {
			return
		}
		// Memory writes, in section order (last store to a word wins).
		for _, d := range s.Insts {
			if d.class == isa.ClassStore {
				m.dmh.WriteU64(d.addr, d.storeVal)
			}
		}
		// Register state: every renamed or cached register value.
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if p := &s.rat[r]; p.valid() && p.readyAt() >= 0 {
				m.arch[r] = p.value()
			}
		}
		s.dumped = true
		// The section can no longer be searched by renaming requests; its
		// MAAT backing goes back to the free list for the next section.
		m.releaseMaat(&s.maat)
		m.cores[s.Core].live--
		m.oldest++
		m.progress++
	}
}

func (m *Machine) hasRequestsAt(s *Section) bool {
	for _, r := range m.reqs {
		if r.target == s || r.from == s {
			return true
		}
	}
	return false
}
