package machine

import (
	"repro/internal/isa"
)

// reqKind discriminates register and memory renaming requests.
type reqKind uint8

// Request kinds: register renaming (RRRU/RERU traffic) and memory renaming
// (ARRU/MERU traffic).
const (
	reqReg reqKind = iota
	reqMem
)

// request is one in-flight renaming request travelling backwards along the
// section order (§4.2). It carries the slot to fill at the requester.
// Requests are pooled per machine (newRequest/releaseRequest): a finished
// request is scrubbed and reused by the next one.
//
// Protocol: the request searches the section immediately preceding `from`
// (initially the requesting section) in the *current* total order. A
// searched section must be fully renamed (register requests) or fully
// address-renamed (memory requests) before it can answer — this is the
// paper's "the renaming request is enqueued in the ARQ to avoid bypassing
// renamings ... not yet done" discipline, and it also guarantees the
// predecessor can no longer fork, so the gap between it and `from` is
// stable. On a miss the request moves on (`from` advances backwards); when
// no live predecessor remains, the committed architectural state (registers)
// or the DMH (memory) answers — the paper's "the request travels back to the
// loader".
type request struct {
	kind     reqKind
	reg      isa.Reg
	addr     uint64
	level    int32 // consumer call level, for the call-level shortcut
	shortcut bool  // rsp-based positive-offset address (§4.2 statement ii)

	reqSec *Section
	sl     *slot

	from        *Section // last searched section (or the requester)
	target      *Section // section the request is travelling to / waiting at
	availableAt int64    // cycle the request is available at its location
	done        bool
}

// addRequest creates a renaming request for instruction d.
func (m *Machine) addRequest(kind reqKind, reg isa.Reg, addr uint64, d *DynInst, sl *slot) {
	r := m.newRequest()
	r.kind = kind
	r.reg = reg
	r.addr = addr
	r.level = d.Level
	r.reqSec = d.Sec
	r.sl = sl
	r.from = d.Sec
	r.availableAt = m.cycle
	if kind == reqMem {
		r.shortcut = rspPositive(d.In)
		m.memReqs++
	} else {
		m.regReqs++
	}
	m.reqs = append(m.reqs, r)
	m.progress++
}

// rspPositive reports whether the instruction's data address is rsp-based
// with a non-negative offset — the paper's condition for the call-level
// shortcut ("stack pointer based variables with a positive offset (e.g.
// 0(rsp)) benefit from a shortcut eliminating instructions belonging to a
// call level deeper than the consumer").
func rspPositive(in *isa.Instruction) bool {
	if in.Op == isa.POP {
		return true
	}
	o, ok := in.MemRead()
	if !ok {
		return false
	}
	return o.Base == isa.RSP && o.Index == isa.NoReg && o.Imm >= 0
}

// searchTarget returns the next section the request must search, or nil when
// the committed state answers (every older live section has been searched or
// skipped). Deeper-level sections are skipped for shortcut requests.
func (m *Machine) searchTarget(r *request) *Section {
	s := m.prevOf(r.from)
	for s != nil && !s.dumped && r.kind == reqMem && r.shortcut && m.cfg.Shortcut && s.BaseLevel > r.level {
		s = m.prevOf(s)
	}
	if s == nil || s.dumped {
		return nil
	}
	return s
}

// processRequests advances every in-flight renaming request by at most one
// protocol step per cycle. Finished requests are compacted out of the list
// in place — surviving requests keep their relative order and are only moved
// when a hole has actually opened before them (the previous drain loop
// rewrote the whole list through append every cycle) — and returned to the
// machine's pool.
func (m *Machine) processRequests() {
	w := 0
	for i, r := range m.reqs {
		m.stepRequest(r)
		if r.done {
			m.releaseRequest(r)
			continue
		}
		if w != i {
			m.reqs[w] = r
		}
		w++
	}
	if w != len(m.reqs) {
		clear(m.reqs[w:])
		m.reqs = m.reqs[:w]
	}
}

func (m *Machine) stepRequest(r *request) {
	if r.done || m.cycle < r.availableAt {
		return
	}
	want := m.searchTarget(r)
	if want == nil {
		m.answerFromCommitted(r)
		return
	}
	if r.target != want {
		// Travel to the (possibly re-evaluated) predecessor's core. The
		// re-evaluation handles sections inserted between the last search
		// point and the requester by later forks.
		r.target = want
		from := r.reqSec.Core
		if r.from != r.reqSec && r.from.Core >= 0 {
			from = r.from.Core
		}
		to := want.Core
		if to < 0 {
			to = from
		}
		r.availableAt = m.cycle + m.cfg.Net.Latency(from, to)
		m.reqHops++
		return
	}
	// At the target: it must be completely renamed before it can answer,
	// otherwise the request waits (the export instruction is not yet
	// insertable).
	if r.kind == reqReg {
		if !want.fullyRenamed() {
			return
		}
		p := &want.rat[r.reg]
		if !p.valid() {
			r.from = want
			r.target = nil
			m.progress++
			return
		}
		m.deliver(r, p)
		return
	}
	if !want.memRenameDone() {
		return
	}
	p := want.maat.get(r.addr)
	if p == nil {
		r.from = want
		r.target = nil
		m.progress++
		return
	}
	m.deliver(r, p)
}

// deliver sends the producer's value back to the requester once it is
// available (the paper's export instruction waits in the IQ/LSQ for the
// requested value, then reads it and sends it through the RERU/MERU).
func (m *Machine) deliver(r *request, p *producer) {
	at := p.readyAt()
	if at < 0 || at >= m.cycle {
		return // value not produced yet; the export waits
	}
	back := m.cfg.Net.Latency(r.target.Core, r.reqSec.Core)
	m.fill(r.sl, p.value(), m.cycle+back)
	r.done = true
	m.respMsgs++
	m.progress++
}

// answerFromCommitted serves a request from the committed architectural
// state: the DMH for memory, the architectural register file for registers.
// This is correct because a nil search target means every older section has
// dumped (in order), so the committed state reflects exactly the program
// point before the requester's earliest live predecessor.
func (m *Machine) answerFromCommitted(r *request) {
	var v uint64
	if r.kind == reqReg {
		v = m.arch[r.reg]
	} else {
		v = m.dmh.ReadU64(r.addr)
	}
	// One cycle to reach the DMH/loader, one processing cycle, one cycle
	// back: the value is usable three cycles after the request left
	// (Fig. 10's "counting 3 cycles to reach the producer and return").
	m.fill(r.sl, v, m.cycle+2)
	r.done = true
	m.respMsgs++
	m.dmhAnswers++
	m.progress++
}
