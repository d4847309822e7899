package machine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// InstTiming is the per-stage timing of one dynamic instruction — one row of
// a Fig. 10 table. A zero means the stage does not apply (e.g. ar/ma for a
// register-register instruction). The row holds no pointer — the instruction
// itself is the program's text at IP (see Result.Text) — so a run's Timings,
// the largest slice it allocates, is memory the GC never scans.
type InstTiming struct {
	Section                 int64 // section ID
	SecPos                  int   // final position in the total section order
	Idx                     int   // ordinal within the section (1-based in Label)
	IP                      int64 // index of the instruction in the program text
	Level                   int32
	FD, RR, EW, AR, MA, RET int64
}

// Label renders the paper's "section-ordinal" instruction name (e.g. "2-13").
func (t InstTiming) Label() string { return fmt.Sprintf("%d-%d", t.SecPos, t.Idx+1) }

// Text renders the instruction of timing row t. It is a method, not a
// precomputed field: formatting every dynamic instruction eagerly used to
// dominate Result construction on big runs, charged to every simulation
// whether or not a Fig. 10 table was wanted.
func (r *Result) Text(t InstTiming) string { return r.prog.Text[t.IP].String() }

// SectionInfo summarises one section.
type SectionInfo struct {
	ID           int64
	Pos          int // position in the final total order
	Core         int
	BaseLevel    int32
	Instructions int
	CreatedAt    int64
	FirstFetch   int64
	LastRetire   int64
}

// Result is the outcome of a machine run.
type Result struct {
	Cycles       int64
	Instructions int64
	Sections     []SectionInfo
	Cores        int
	// FetchDone is the cycle the last instruction was fetched; the paper's
	// "the code is fetched in 30 cycles" for sum(t,5).
	FetchDone int64
	// RetireDone is the cycle the last instruction retired; the paper's
	// retirement time (43 for sum(t,5)).
	RetireDone int64
	// RAX is the conventional program result.
	RAX uint64
	// Regs is the final committed architectural register file.
	Regs [isa.NumRegs]uint64
	// Timings holds per-instruction stage cycles, in global trace order.
	Timings []InstTiming
	// FetchedPerCore counts instructions fetched by each core.
	FetchedPerCore []int64
	// Requests counts renaming requests issued (register, memory).
	RegRequests, MemRequests int64
	// CreateMessages counts section-creation messages sent by forks.
	CreateMessages int64
	// RequestHops counts request-forwarding messages: every NoC traversal a
	// renaming request makes while searching backwards along the section
	// order.
	RequestHops int64
	// ResponseMessages counts value responses sent back to requesters,
	// including answers from the committed state.
	ResponseMessages int64
	// DMHAnswers counts the requests answered by the committed state (the
	// paper's "the request travels back to the loader") rather than by a
	// live section.
	DMHAnswers int64
	// NetName identifies the topology used.
	NetName string

	prog *isa.Program // the simulated program, for Text
}

// NocMessages returns the total messages charged to the on-chip network:
// section creations, request hops and value responses.
func (r *Result) NocMessages() int64 {
	return r.CreateMessages + r.RequestHops + r.ResponseMessages
}

// FetchIPC returns instructions fetched per cycle until fetch completion.
func (r *Result) FetchIPC() float64 {
	if r.FetchDone == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.FetchDone)
}

// RetireIPC returns instructions retired per cycle over the whole run.
func (r *Result) RetireIPC() float64 {
	if r.RetireDone == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.RetireDone)
}

func (m *Machine) result() *Result {
	r := &Result{
		Cycles:           m.cycle,
		Cores:            len(m.cores),
		RAX:              m.arch[isa.RAX],
		Regs:             m.arch,
		NetName:          m.cfg.Net.Name(),
		prog:             m.prog,
		RegRequests:      m.regReqs,
		MemRequests:      m.memReqs,
		CreateMessages:   m.createMsgs,
		RequestHops:      m.reqHops,
		ResponseMessages: m.respMsgs,
		DMHAnswers:       m.dmhAnswers,
	}
	var fetched int64
	for _, c := range m.cores {
		r.FetchedPerCore = append(r.FetchedPerCore, c.fetched)
		fetched += c.fetched
	}
	r.Timings = make([]InstTiming, 0, fetched)
	r.Sections = make([]SectionInfo, 0, len(m.order))
	for _, s := range m.order {
		info := SectionInfo{
			ID: s.ID, Pos: s.Pos, Core: s.Core, BaseLevel: s.BaseLevel,
			Instructions: len(s.Insts), CreatedAt: s.createdAt, FirstFetch: s.firstFetch,
		}
		for _, d := range s.Insts {
			r.Instructions++
			if d.tFD > r.FetchDone {
				r.FetchDone = d.tFD
			}
			if d.tRET > r.RetireDone {
				r.RetireDone = d.tRET
			}
			if d.tRET > info.LastRetire {
				info.LastRetire = d.tRET
			}
			r.Timings = append(r.Timings, InstTiming{
				Section: s.ID, SecPos: s.Pos, Idx: d.Idx, IP: d.IP, Level: d.Level,
				FD: d.tFD, RR: d.tRR, EW: d.tEW, AR: d.tAR, MA: d.tMA.at, RET: d.tRET,
			})
		}
		r.Sections = append(r.Sections, info)
	}
	// m.order is maintained in ascending position (Pos == index), so both
	// slices are built already sorted in global trace order.
	return r
}

// Fig10Table renders the per-core timing tables in the style of the paper's
// Fig. 10: one table per core, one row per instruction with its six stage
// cycles.
func (r *Result) Fig10Table() string {
	byCore := make(map[int][]InstTiming)
	secCore := make(map[int]int)
	for _, s := range r.Sections {
		secCore[s.Pos] = s.Core
	}
	for _, t := range r.Timings {
		c := secCore[t.SecPos]
		byCore[c] = append(byCore[c], t)
	}
	var cores []int
	for c := range byCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	var b strings.Builder
	for _, c := range cores {
		fmt.Fprintf(&b, "core %d pipeline\n", c)
		fmt.Fprintf(&b, "%-7s %-28s %5s %5s %5s %5s %5s %5s\n",
			"instr", "text", "fd", "rr", "ew", "ar", "ma", "ret")
		rows := byCore[c]
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].SecPos != rows[j].SecPos {
				return rows[i].SecPos < rows[j].SecPos
			}
			return rows[i].Idx < rows[j].Idx
		})
		dash := func(v int64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%d", v)
		}
		for _, t := range rows {
			fmt.Fprintf(&b, "%-7s %-28s %5s %5s %5s %5s %5s %5s\n",
				t.Label(), r.Text(t), dash(t.FD), dash(t.RR), dash(t.EW), dash(t.AR), dash(t.MA), dash(t.RET))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary renders the headline numbers.
func (r *Result) Summary() string {
	return fmt.Sprintf("cores=%d net=%s sections=%d instructions=%d fetch=%d cycles (%.1f ipc) retire=%d cycles (%.1f ipc) total=%d cycles rax=%d",
		r.Cores, r.NetName, len(r.Sections), r.Instructions,
		r.FetchDone, r.FetchIPC(), r.RetireDone, r.RetireIPC(), r.Cycles, r.RAX)
}

// RunProgram builds a machine with the default configuration and runs prog.
func RunProgram(prog *isa.Program, cores int) (*Result, error) {
	m, err := New(prog, DefaultConfig(cores))
	if err != nil {
		return nil, err
	}
	return m.Run()
}
