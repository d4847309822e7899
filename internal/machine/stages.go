package machine

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// older orders dynamic instructions by (section order position, ordinal).
func older(a, b *DynInst) bool {
	if a.Sec.Pos != b.Sec.Pos {
		return a.Sec.Pos < b.Sec.Pos
	}
	return a.Idx < b.Idx
}

// ---------------------------------------------------------------- fetch ----

// branchResumable reports whether a stalled control instruction's redirect is
// usable by the fetch stage this cycle. The execute-write-back stage of cycle
// t publishes the branch target at the end of t, so fetch may resume at t+1 —
// the same strictly-older boundary every other consumer of a stage result
// applies (ewReady, maReady, stageRetire). This helper is the single home of
// that comparison; TestStallResumeLatency pins the one-cycle resume latency
// so an off-by-one (resuming at t+2, or same-cycle at t) cannot creep back in
// at any of the three call sites (stalled fetch, hasFetchWork, pickSection).
func (m *Machine) branchResumable(d *DynInst) bool {
	return d != nil && d.resolved && d.tEW > 0 && d.tEW < m.cycle
}

// stageFD implements the fetch-decode-and-partly-execute stage (Fig. 8):
// one instruction per cycle, simple ALU and control instructions computed
// in-stage when their sources are full in the stage-local register file.
func (m *Machine) stageFD(c *Core) {
	if c.fetch == nil {
		m.pickSection(c)
		if c.fetch == nil {
			return
		}
	}
	sec := c.fetch
	if sec.stalled != nil {
		d := sec.stalled
		if m.branchResumable(d) {
			sec.fetchIP = d.nextIP
			sec.stalled = nil
			m.progress++
		} else {
			// A stalled fetch sets the section aside when there is other
			// fetch work: a queued section-creation message or a suspended
			// section whose branch has resolved (engineering extension over
			// the paper, which leaves the interleaving unspecified; this
			// guarantees deadlock freedom when sections outnumber cores).
			if m.hasFetchWork(c) {
				sec.rfSave = c.rf
				c.suspended.Push(sec)
				c.fetch = nil
				m.quietMove = true // state change with no counter move
			}
			return
		}
	}
	if sec.fetchIP < 0 || sec.fetchIP >= int64(len(m.prog.Text)) {
		m.err = fmt.Errorf("machine: section %d fetch out of text at ip=%d", sec.ID, sec.fetchIP)
		return
	}
	in := &m.prog.Text[sec.fetchIP]
	d := m.dyns.alloc()
	d.Sec = sec
	d.Idx = len(sec.Insts)
	d.IP = sec.fetchIP
	d.In = in
	d.Level = sec.curLevel
	d.class = in.Classify()
	d.tFD = m.cycle
	sec.Insts = append(sec.Insts, d)
	c.renameQ.Push(d)
	c.fetched++
	m.progress++
	next := sec.fetchIP + 1

	full := func(rs []isa.Reg) bool {
		for _, r := range rs {
			if !c.rf[r].full {
				return false
			}
		}
		return true
	}
	rd := func(r isa.Reg) uint64 { return c.rf[r].v }
	markEmpty := func() {
		for _, r := range m.regWriteSet(in) {
			c.rf[r] = val{}
		}
	}

	switch d.class {
	case isa.ClassSimple:
		reads := m.regReads(in)
		if full(reads) {
			var out regWrites
			if err := evalRegCompute(in, rd, &out); err != nil {
				m.err = fmt.Errorf("machine: ip=%d (%s): %v", d.IP, in, err)
				return
			}
			for i := 0; i < out.n; i++ {
				r, v := out.reg[i], out.val[i]
				d.setReg(r, v, m.cycle)
				c.rf[r] = val{v: v, full: true}
			}
			d.computedAtFetch = true
		} else {
			markEmpty()
		}
	case isa.ClassComplex:
		// Complex integer instructions are never computed in the fetch
		// stage (§4.1), even when their sources are full.
		markEmpty()
	case isa.ClassLoad, isa.ClassStore:
		// The register half of push/pop (the rsp update) is simple and is
		// computed in-stage when rsp is full, keeping the stack discipline
		// flowing through the fetch stage.
		if (in.Op == isa.PUSH || in.Op == isa.POP) && c.rf[isa.RSP].full {
			nrsp := c.rf[isa.RSP].v - 8
			if in.Op == isa.POP {
				nrsp = c.rf[isa.RSP].v + 8
			}
			d.setReg(isa.RSP, nrsp, m.cycle)
			c.rf[isa.RSP] = val{v: nrsp, full: true}
			if in.Op == isa.POP && in.Dst.Kind == isa.KindReg {
				c.rf[in.Dst.Reg] = val{}
			}
			if in.WritesFlags() {
				c.rf[isa.Flags] = val{}
			}
		} else {
			markEmpty()
		}
	case isa.ClassControl:
		switch in.Op {
		case isa.JMP:
			next = in.Target
			d.taken = true
			d.resolved = true
			d.computedAtFetch = true
		case isa.Jcc:
			if c.rf[isa.Flags].full {
				d.taken = in.Cond.Eval(isa.FlagsVal(c.rf[isa.Flags].v))
				if d.taken {
					next = in.Target
				}
				d.nextIP = next
				d.resolved = true
				d.computedAtFetch = true
			} else {
				// The branch target cannot be computed: fetch stalls until
				// the execute stage resolves it (Fig. 8: "IP is set to
				// empty ... if target is not computed").
				sec.stalled = d
			}
		case isa.FORK:
			m.doFork(c, sec, d)
			next = in.Target
			d.taken = true
			d.resolved = true
			d.computedAtFetch = true
			sec.curLevel++
		case isa.ENDFORK, isa.HLT:
			d.resolved = true
			d.computedAtFetch = true
			sec.fetchDone = true
			c.fetch = nil
			if in.Op == isa.HLT {
				m.hltSeen = true
			}
		}
	}
	sec.fetchIP = next
}

// hasFetchWork reports whether an idle (or stalled) fetch stage has something
// else it could usefully fetch.
func (m *Machine) hasFetchWork(c *Core) bool {
	if !c.pending.Empty() && c.pending.Front().deliverAt < m.cycle {
		return true
	}
	for i, n := 0, c.suspended.Len(); i < n; i++ {
		if m.branchResumable(c.suspended.At(i).stalled) {
			return true
		}
	}
	return false
}

// pickSection chooses what the idle fetch stage works on next: first any
// suspended section whose stalled branch has resolved, then the head of the
// section-creation FIFO (a message is consumed the cycle after delivery).
func (m *Machine) pickSection(c *Core) {
	for i, n := 0, c.suspended.Len(); i < n; i++ {
		s := c.suspended.At(i)
		d := s.stalled
		if m.branchResumable(d) {
			c.suspended.Remove(i)
			s.fetchIP = d.nextIP
			s.stalled = nil
			c.rf = s.rfSave // fetch RF as saved at suspension
			c.fetch = s
			m.progress++
			return
		}
	}
	if !c.pending.Empty() && c.pending.Front().deliverAt < m.cycle {
		msg := c.pending.Pop()
		m.pendingCreates--
		sec := msg.sec
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			c.rf[r] = sec.init[r]
		}
		sec.firstFetch = m.cycle
		c.fetch = sec
		m.progress++
	}
}

// doFork creates the continuation section (starting at the instruction after
// the fork) and sends its creation message: the forked IP, the stack pointer
// and the non-volatile registers (§4.1). Registers that are not computed at
// the fork point cannot travel in the message (their copy stays empty);
// they are linked to the creator's current producers when the fork passes
// the rename stage (at that point every older write has been renamed and no
// younger one exists, so the creator's RAT entry is exactly the value the
// copy must carry).
func (m *Machine) doFork(c *Core, sec *Section, d *DynInst) {
	created := m.newSection(d.IP+1, sec.curLevel, m.cycle)
	for _, r := range emu.NonVolatile {
		if c.rf[r].full {
			created.init[r] = c.rf[r]
		}
	}
	d.createdSec = created
	m.insertAfter(sec, created)
	m.createMsgs++
	m.assignHost(created, m.cycle+m.cfg.CreateLatency)
}

// --------------------------------------------------------------- rename ----

// ratLookup returns the section's current producer for register r, creating
// the creation-copy constant or the request-backed cache slot on a miss
// (§4.2: a missing source allocates a caching destination and sends a
// renaming request backwards along the section order).
func (m *Machine) ratLookup(sec *Section, r isa.Reg, d *DynInst) *producer {
	p := &sec.rat[r]
	if !p.valid() {
		if sec.init[r].full {
			*p = m.constProd(sec.init[r].v, sec.firstFetch)
		} else {
			sl := m.slots.alloc()
			*p = slotProd(sl)
			m.addRequest(reqReg, r, 0, d, sl)
		}
	}
	return p
}

// stageRR implements the register-rename stage: one instruction per cycle,
// in fetch order. Sources that miss in the section's RAT and have no fork
// copy allocate a cache slot and send a renaming request backwards along the
// section order (§4.2, "Register renaming").
func (m *Machine) stageRR(c *Core) {
	if c.renameQ.Empty() {
		return
	}
	d := c.renameQ.Front()
	if d.tFD >= m.cycle {
		return
	}
	c.renameQ.Pop()
	sec := d.Sec

	needsSources := !d.computedAtFetch || d.isMem()
	if needsSources {
		aRegs := d.In.AddrRegs()
		for _, r := range m.regReads(d.In) {
			p := m.ratLookup(sec, r, d)
			if d.nsrcs == maxSrcs {
				m.err = fmt.Errorf("machine: ip=%d (%s): more than %d register sources", d.IP, d.In, maxSrcs)
				return
			}
			d.srcs[d.nsrcs] = srcRef{reg: r, prod: *p, addr: aRegs.Has(r)}
			d.nsrcs++
		}
	}
	for _, r := range m.regWriteSet(d.In) {
		sec.rat[r] = regProd(d, r)
	}
	if d.In.Op == isa.FORK {
		// Deferred non-volatile copies: link the created section to the
		// creator's current producers.
		for _, r := range emu.NonVolatile {
			if !d.createdSec.init[r].full {
				d.createdSec.rat[r] = *m.ratLookup(sec, r, d)
			}
		}
	}
	d.tRR = m.cycle
	sec.renamed++
	m.progress++
	if d.isMem() {
		sec.memOps++
		sec.arQ.Push(d)
	}
	c.iq = append(c.iq, d)
}

// -------------------------------------------------------------- execute ----

// stageEW implements the out-of-order execute-write-back stage: one
// instruction per cycle, oldest ready first. Register-register instructions
// compute their results; memory instructions compute their access address;
// stalled control instructions resolve and unblock fetch. An instruction is
// ready when its (cached) wake cycle has passed: for memory instructions
// only the address-forming sources gate the stage; for everything else all
// sources do.
func (m *Machine) stageEW(c *Core) {
	if best := m.selectEW(c); best >= 0 {
		m.ewApply(c, best)
	}
}

// selectEW returns the index in c.iq of the instruction the execute-write-back
// stage issues this cycle, or -1: the oldest entry whose wake cycle has
// passed. Readiness compares stored timestamps against `< m.cycle`, so the
// pick is a function of cycle-start state. The dense scheduler scans every
// entry every cycle; the idle-skip scheduler parks an entry found blocked on
// its blocking cell (park), so it is visited again only once that cell has
// been written.
func (m *Machine) selectEW(c *Core) int {
	// Every entry queued now is visited exactly once: a parked one is
	// replaced in its slot by the last entry, which is visited next.
	m.selVisits += int64(len(c.iq))
	park := !m.cfg.Dense
	best := -1
	for i := 0; i < len(c.iq); i++ {
		d := c.iq[i]
		// A known-blocked instruction costs one load, a cached wake one
		// comparison; ewWake handles the rest.
		if d.ewWakeAt == 0 && (d.ewBlocked() || m.ewWake(d) == never) {
			if park {
				m.park(&c.iq, i, d.ewBlock)
				i--
			}
			continue
		}
		if d.ewWakeAt > m.cycle {
			continue
		}
		if best < 0 || older(d, c.iq[best]) {
			best = i
		}
	}
	return best
}

// park moves the blocked entry q[i] off its queue onto cell's waiter list.
// Exact because the entry cannot pass its stage while cell is 0, and the
// cell's write unparks it (unpark) before the first cycle it could.
func (m *Machine) park(q *[]*DynInst, i int, cell *readyCell) {
	d := (*q)[i]
	swapRemove(q, i)
	d.nextWait = cell.wait
	cell.wait = d
}

// unpark puts every entry parked on cell back on its host core's queue: the
// issue queue if it has not passed execute-write-back yet, the load-store
// queue otherwise. Every write of a ready cell is followed by it.
func (m *Machine) unpark(cell *readyCell) {
	d := cell.wait
	if d == nil {
		return // the common case; skip the pointer store and its GC barrier
	}
	cell.wait = nil
	for d != nil {
		next := d.nextWait
		d.nextWait = nil
		c := m.cores[d.Sec.Core]
		if d.tEW == 0 {
			c.iq = append(c.iq, d)
		} else {
			c.lsq = append(c.lsq, d)
		}
		d = next
	}
}

// ewApply issues c.iq[best] through the execute-write-back stage: the apply
// half of stageEW. It writes producer cells consumers on other cores wait
// on, and unparks their waiters.
func (m *Machine) ewApply(c *Core, best int) {
	d := c.iq[best]
	swapRemove(&c.iq, best)
	d.tEW = m.cycle
	m.progress++

	if d.isMem() {
		d.addr = d.effectiveAddr()
		// The register half of push/pop, if not computed at fetch.
		if d.In.Op == isa.PUSH {
			if !d.regWritten(isa.RSP) {
				d.setReg(isa.RSP, d.srcValue(isa.RSP)-8, m.cycle)
			}
		}
		if d.In.Op == isa.POP {
			if !d.regWritten(isa.RSP) {
				d.setReg(isa.RSP, d.srcValue(isa.RSP)+8, m.cycle)
			}
		}
		m.unparkRegs(d)
		return
	}
	if d.computedAtFetch {
		// Results already produced in the fetch stage, before any consumer
		// was renamed against them: nothing can be parked on them.
		return
	}
	switch d.In.Op {
	case isa.Jcc:
		fl := isa.FlagsVal(d.srcValue(isa.Flags))
		d.taken = d.In.Cond.Eval(fl)
		d.nextIP = d.IP + 1
		if d.taken {
			d.nextIP = d.In.Target
		}
		d.resolved = true
	case isa.NOP, isa.JMP, isa.FORK, isa.ENDFORK, isa.HLT:
		d.resolved = true
	default:
		var out regWrites
		if err := evalRegCompute(d.In, d.srcValue, &out); err != nil {
			m.err = fmt.Errorf("machine: ip=%d (%s): %v", d.IP, d.In, err)
			return
		}
		for i := 0; i < out.n; i++ {
			d.setReg(out.reg[i], out.val[i], m.cycle)
		}
		m.unparkRegs(d)
	}
}

// ------------------------------------------------------- address rename ----

// arHead returns the section's address-rename head if it may pass the stage
// this cycle (its execute-write-back, which computes the address, is
// strictly older), or nil.
func (m *Machine) arHead(s *Section) *DynInst {
	if s.arQ.Empty() {
		return nil
	}
	h := s.arQ.Front()
	if h.tEW == 0 || h.tEW >= m.cycle {
		return nil
	}
	return h
}

// arApply renames the address of sec's AR head d on its hosting core.
func (m *Machine) arApply(c *Core, sec *Section, d *DynInst) {
	sec.arQ.Pop()

	if _, reads := d.In.MemRead(); reads {
		if p := sec.maat.get(d.addr); p != nil {
			d.memSrc = *p
		} else {
			sl := m.slots.alloc()
			d.memSrc = slotProd(sl)
			m.maatPut(&sec.maat, d.addr, d.memSrc)
			m.addRequest(reqMem, 0, d.addr, d, sl)
		}
	}
	if _, writes := d.In.MemWrite(); writes {
		m.maatPut(&sec.maat, d.addr, memProd(d))
	}
	d.tAR = m.cycle
	sec.memRen++
	m.progress++
	c.lsq = append(c.lsq, d)
}

// stageAR implements the in-order address-rename stage: one memory
// instruction per cycle per core, in section order within each section
// (oldest section first across sections). Loads that miss in the MAAT send
// a memory renaming request backwards along the section order, applying the
// call-level shortcut for rsp-positive addresses (§4.2, "Memory renaming").
func (m *Machine) stageAR(c *Core) {
	var sec *Section
	var d *DynInst
	for _, s := range m.order {
		if s.Core != c.id || s.dumped {
			continue
		}
		h := m.arHead(s)
		if h == nil {
			continue
		}
		if sec == nil || s.Pos < sec.Pos {
			sec, d = s, h
		}
	}
	if d == nil {
		return
	}
	m.arApply(c, sec, d)
}

// -------------------------------------------------------- memory access ----

// stageMA implements the memory-access stage: one renamed memory instruction
// per cycle, oldest ready first. Loads deliver their value to the register
// results; stores make their value available to consumers. An instruction is
// ready when its (cached) wake cycle has passed: its loaded value (if any)
// and its non-address sources must be ready.
func (m *Machine) stageMA(c *Core) {
	if best := m.selectMA(c); best >= 0 {
		m.maApply(c, best)
	}
}

// selectMA is selectEW's memory-access counterpart: the selection half of
// stageMA, parking blocked entries on maBlock under the idle-skip scheduler.
func (m *Machine) selectMA(c *Core) int {
	m.selVisits += int64(len(c.lsq))
	park := !m.cfg.Dense
	best := -1
	for i := 0; i < len(c.lsq); i++ {
		d := c.lsq[i]
		if d.maWakeAt == 0 && (d.maBlocked() || m.maWake(d) == never) {
			if park {
				m.park(&c.lsq, i, d.maBlock)
				i--
			}
			continue
		}
		if d.maWakeAt > m.cycle {
			continue
		}
		if best < 0 || older(d, c.lsq[best]) {
			best = i
		}
	}
	return best
}

// maApply performs the memory access of c.lsq[best]: the apply half of
// stageMA. It fills producer cells — a load's register results, a store's
// memory value — and unparks their waiters.
func (m *Machine) maApply(c *Core, best int) {
	d := c.lsq[best]
	swapRemove(&c.lsq, best)
	var mv uint64
	if d.memSrc.valid() {
		mv = d.memSrc.value()
	}
	if err := d.evalMemAccess(mv, m.cycle); err != nil {
		m.err = err
		return
	}
	d.tMA.at = m.cycle
	m.progress++
	m.unparkRegs(d)
	m.unpark(&d.tMA)
}

// unparkRegs unparks the waiters of d's written register-result cells,
// after the execute-write-back or memory-access stage wrote some of them. A
// cell still 0 (a load's value at execute-write-back) keeps its waiters.
func (m *Machine) unparkRegs(d *DynInst) {
	for i := range d.wrAt[:d.nwr] {
		if d.wrAt[i].at != 0 {
			m.unpark(&d.wrAt[i])
		}
	}
}

// --------------------------------------------------------------- retire ----

// retireHead returns the section's in-order retirement head if it may retire
// this cycle (its completing event is strictly older), or nil.
func (m *Machine) retireHead(s *Section) *DynInst {
	if s.retired >= len(s.Insts) {
		return nil
	}
	h := s.Insts[s.retired]
	if !h.done() || h.tRET != 0 {
		return nil
	}
	// A stage boundary: the completing event must be strictly older than
	// this cycle.
	if h.isMem() {
		if h.tMA.at >= m.cycle {
			return nil
		}
	} else if h.tEW >= m.cycle {
		return nil
	}
	return h
}

// retireApply retires sec's head d.
func (m *Machine) retireApply(sec *Section, d *DynInst) {
	d.tRET = m.cycle
	sec.retired++
	m.progress++
}

// stageRetire implements the in-order (per section) retirement stage: one
// instruction per cycle per core, oldest hosted section first. Retirement is
// parallel across cores/sections (§4.2, "Parallelizing retirement"); the
// oldest section's state is dumped to the DMH by Machine.dumpOldest.
func (m *Machine) stageRetire(c *Core) {
	var sec *Section
	var d *DynInst
	for _, s := range m.order {
		if s.Core != c.id || s.dumped {
			continue
		}
		h := m.retireHead(s)
		if h == nil {
			continue
		}
		if sec == nil || s.Pos < sec.Pos {
			sec, d = s, h
		}
	}
	if d == nil {
		return
	}
	m.retireApply(sec, d)
}
