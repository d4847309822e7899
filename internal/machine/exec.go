package machine

import (
	"fmt"

	"repro/internal/isa"
)

// wrSlot returns the index of d's result cell for register r, claiming a
// free cell on first use. An instruction writes at most maxWr registers
// (guaranteed by isa.Instruction.RegWrites); the array bound traps any
// violation.
func (d *DynInst) wrSlot(r isa.Reg) int {
	for i := 0; i < int(d.nwr); i++ {
		if d.wrRegs[i] == r {
			return i
		}
	}
	i := int(d.nwr)
	d.wrRegs[i] = r
	d.nwr++
	return i
}

// regWritten reports whether d has already produced a result for r.
func (d *DynInst) regWritten(r isa.Reg) bool {
	for i := 0; i < int(d.nwr); i++ {
		if d.wrRegs[i] == r {
			return d.wrAt[i].at != 0
		}
	}
	return false
}

// setReg records one register result of d becoming available at cycle cyc.
func (d *DynInst) setReg(r isa.Reg, v uint64, cyc int64) {
	i := d.wrSlot(r)
	if d.wrAt[i].at != 0 {
		// Keep the earliest availability (e.g. pop's rsp update computed at
		// fetch must not be delayed by the load half).
		d.wrVal[i] = v
		return
	}
	d.wrVal[i] = v
	d.wrAt[i].at = cyc
}

// srcValue returns the resolved value of register r among d's sources.
func (d *DynInst) srcValue(r isa.Reg) uint64 {
	for i := range d.srcs[:d.nsrcs] {
		if d.srcs[i].reg == r {
			return d.srcs[i].prod.value()
		}
	}
	return 0
}

// results collects what one evaluation of an instruction produces: at most
// two register results (a destination plus Flags, or rax plus rdx for the
// divides) and, for a memory destination, the word to store. A fixed-size
// out-parameter, not a map — the previous map allocation per evaluated
// instruction was one of the simulator's top allocation sites.
type results struct {
	n     int
	reg   [2]isa.Reg
	val   [2]uint64
	store uint64
}

func (w *results) set(r isa.Reg, v uint64) {
	w.reg[w.n] = r
	w.val[w.n] = v
	w.n++
}

// eval is the machine's one evaluator. It computes the results of in from
// its operand values: a register operand's value comes from rd, an
// immediate is itself, and a memory operand's value is mem, the word the
// instruction loaded (ignored when it loads nothing). The opcode's row in
// the isa operand table says what is written: a memory destination yields
// the word to store, a register destination a register result, and Flags
// only where the row says so, so cmp and test never store. The fetch stage's
// in-order partial execution and the execute-write-back and memory-access
// stages all evaluate through here; the rsp halves of push and pop are
// computed by the stages themselves, and control instructions produce
// nothing here.
func eval(in *isa.Instruction, rd func(isa.Reg) uint64, mem uint64, out *results) error {
	info := in.Op.Info()
	val := func(o *isa.Operand) uint64 {
		switch o.Kind {
		case isa.KindReg:
			return rd(o.Reg)
		case isa.KindImm:
			return uint64(o.Imm)
		case isa.KindMem:
			return mem
		}
		return 0
	}
	var a, b, r uint64
	if info.Roles&isa.SrcRead != 0 {
		b = val(&in.Src)
	}
	if info.Roles&isa.DstRead != 0 {
		a = val(&in.Dst)
	}
	var fl isa.FlagsVal
	switch in.Op {
	case isa.MOV:
		r = b
	case isa.LEA:
		r = uint64(in.Src.Imm)
		if in.Src.Base != isa.NoReg {
			r += rd(in.Src.Base)
		}
		if in.Src.Index != isa.NoReg {
			r += rd(in.Src.Index) * uint64(in.Src.Scale)
		}
	case isa.ADD:
		r = a + b
		fl = isa.FlagsAdd(a, b, r)
	case isa.SUB, isa.CMP:
		r = a - b
		fl = isa.FlagsSub(a, b, r)
	case isa.AND, isa.TEST:
		r = a & b
		fl = isa.FlagsLogic(r)
	case isa.OR:
		r = a | b
		fl = isa.FlagsLogic(r)
	case isa.XOR:
		r = a ^ b
		fl = isa.FlagsLogic(r)
	case isa.IMUL:
		r = uint64(int64(a) * int64(b))
	case isa.SHL:
		r = a << (b & 63)
		fl = isa.FlagsLogic(r)
	case isa.SHR:
		r = a >> (b & 63)
		fl = isa.FlagsLogic(r)
	case isa.SAR:
		r = uint64(int64(a) >> (b & 63))
		fl = isa.FlagsLogic(r)
	case isa.NEG:
		r = -a
		fl = isa.FlagsSub(0, a, r)
	case isa.NOT:
		r = ^a
	case isa.INC:
		r = a + 1
		fl = isa.FlagsAdd(a, 1, r)
	case isa.DEC:
		r = a - 1
		fl = isa.FlagsSub(a, 1, r)
	case isa.SETcc:
		if in.Cond.Eval(isa.FlagsVal(rd(isa.Flags))) {
			r = 1
		}
	case isa.PUSH:
		out.store = b
	case isa.POP:
		r = mem
	case isa.CQTO:
		out.set(isa.RDX, uint64(int64(rd(isa.RAX))>>63))
	case isa.DIV:
		if a == 0 {
			return fmt.Errorf("division by zero")
		}
		if rd(isa.RDX) != 0 {
			return fmt.Errorf("divq with non-zero rdx")
		}
		out.set(isa.RAX, rd(isa.RAX)/a)
		out.set(isa.RDX, rd(isa.RAX)%a)
	case isa.IDIV:
		d := int64(a)
		if d == 0 {
			return fmt.Errorf("division by zero")
		}
		num := int64(rd(isa.RAX))
		if int64(rd(isa.RDX)) != num>>63 {
			return fmt.Errorf("idivq with rdx not the sign extension of rax")
		}
		out.set(isa.RAX, uint64(num/d))
		out.set(isa.RDX, uint64(num%d))
	}
	if info.Roles&isa.DstWritten != 0 {
		if in.Dst.Kind == isa.KindMem {
			out.store = r
		} else {
			out.set(in.Dst.Reg, r)
		}
	}
	if info.Roles&isa.FlagsWritten != 0 {
		out.set(isa.Flags, uint64(fl))
	}
	return nil
}

// effectiveAddr computes the data address of a memory instruction from its
// resolved register sources (for push the post-decrement rsp-8, for pop the
// incoming rsp).
func (d *DynInst) effectiveAddr() uint64 {
	o, ok := d.In.MemRead()
	if !ok {
		o, _ = d.In.MemWrite()
	}
	a := uint64(o.Imm)
	if o.Base != isa.NoReg {
		a += d.srcValue(o.Base)
	}
	if o.Index != isa.NoReg {
		a += d.srcValue(o.Index) * uint64(o.Scale)
	}
	return a
}

// dedupRegs removes duplicates in place, preserving order.
func dedupRegs(rs []isa.Reg) []isa.Reg {
	out := rs[:0]
	var seen isa.RegMask
	for _, r := range rs {
		if r < isa.NumRegs && !seen.Has(r) {
			seen.Add(r)
			out = append(out, r)
		}
	}
	return out
}
