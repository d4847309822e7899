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

// regWrites collects the register results of one instruction evaluation: at
// most two writes (a destination plus Flags, or rax plus rdx for divides).
// A fixed-size out-parameter, not a map — the previous map allocation per
// evaluated instruction was one of the simulator's top allocation sites.
type regWrites struct {
	n   int
	reg [2]isa.Reg
	val [2]uint64
}

func (w *regWrites) set(r isa.Reg, v uint64) {
	w.reg[w.n] = r
	w.val[w.n] = v
	w.n++
}

// evalRegCompute computes the register results of a non-memory instruction
// given a register reader, appending them to out. Used both by the fetch
// stage's in-order partial execution and by the execute-write-back stage.
// Controls and memory ops produce no writes here.
func evalRegCompute(in *isa.Instruction, rd func(isa.Reg) uint64, out *regWrites) error {
	src := func() uint64 {
		switch in.Src.Kind {
		case isa.KindReg:
			return rd(in.Src.Reg)
		case isa.KindImm:
			return uint64(in.Src.Imm)
		}
		return 0
	}
	switch in.Op {
	case isa.NOP, isa.JMP, isa.Jcc, isa.FORK, isa.ENDFORK, isa.HLT:
		return nil
	case isa.MOV:
		out.set(in.Dst.Reg, src())
	case isa.LEA:
		a := uint64(in.Src.Imm)
		if in.Src.Base != isa.NoReg {
			a += rd(in.Src.Base)
		}
		if in.Src.Index != isa.NoReg {
			a += rd(in.Src.Index) * uint64(in.Src.Scale)
		}
		out.set(in.Dst.Reg, a)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL, isa.SHL, isa.SHR, isa.SAR:
		a := rd(in.Dst.Reg)
		b := src()
		var r uint64
		var fl isa.FlagsVal
		setFlags := true
		switch in.Op {
		case isa.ADD:
			r = a + b
			fl = isa.FlagsAdd(a, b, r)
		case isa.SUB:
			r = a - b
			fl = isa.FlagsSub(a, b, r)
		case isa.AND:
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
			setFlags = false
		case isa.SHL:
			r = a << (b & 63)
			fl = isa.FlagsLogic(r)
		case isa.SHR:
			r = a >> (b & 63)
			fl = isa.FlagsLogic(r)
		case isa.SAR:
			r = uint64(int64(a) >> (b & 63))
			fl = isa.FlagsLogic(r)
		}
		out.set(in.Dst.Reg, r)
		if setFlags {
			out.set(isa.Flags, uint64(fl))
		}
	case isa.NEG:
		v := rd(in.Dst.Reg)
		r := -v
		out.set(in.Dst.Reg, r)
		out.set(isa.Flags, uint64(isa.FlagsSub(0, v, r)))
	case isa.NOT:
		out.set(in.Dst.Reg, ^rd(in.Dst.Reg))
	case isa.INC:
		v := rd(in.Dst.Reg)
		out.set(in.Dst.Reg, v+1)
		out.set(isa.Flags, uint64(isa.FlagsAdd(v, 1, v+1)))
	case isa.DEC:
		v := rd(in.Dst.Reg)
		out.set(in.Dst.Reg, v-1)
		out.set(isa.Flags, uint64(isa.FlagsSub(v, 1, v-1)))
	case isa.CQTO:
		out.set(isa.RDX, uint64(int64(rd(isa.RAX))>>63))
	case isa.CMP:
		a := rd(in.Dst.Reg)
		b := src()
		out.set(isa.Flags, uint64(isa.FlagsSub(a, b, a-b)))
	case isa.TEST:
		out.set(isa.Flags, uint64(isa.FlagsLogic(rd(in.Dst.Reg)&src())))
	case isa.SETcc:
		v := uint64(0)
		if in.Cond.Eval(isa.FlagsVal(rd(isa.Flags))) {
			v = 1
		}
		out.set(in.Dst.Reg, v)
	case isa.DIV:
		d := rd(in.Dst.Reg)
		if d == 0 {
			return fmt.Errorf("division by zero")
		}
		if rd(isa.RDX) != 0 {
			return fmt.Errorf("divq with non-zero rdx")
		}
		out.set(isa.RAX, rd(isa.RAX)/d)
		out.set(isa.RDX, rd(isa.RAX)%d)
	case isa.IDIV:
		d := int64(rd(in.Dst.Reg))
		if d == 0 {
			return fmt.Errorf("division by zero")
		}
		num := int64(rd(isa.RAX))
		if int64(rd(isa.RDX)) != num>>63 {
			return fmt.Errorf("idivq with rdx not the sign extension of rax")
		}
		out.set(isa.RAX, uint64(num/d))
		out.set(isa.RDX, uint64(num%d))
	default:
		return fmt.Errorf("unexpected opcode %s in register compute", in.Op)
	}
	return nil
}

// effectiveAddr computes the data address of a memory instruction from its
// resolved register sources. For push the address is rsp-8 (post-decrement);
// for pop it is the incoming rsp.
func (d *DynInst) effectiveAddr() uint64 {
	in := d.In
	switch in.Op {
	case isa.PUSH:
		return d.srcValue(isa.RSP) - 8
	case isa.POP:
		return d.srcValue(isa.RSP)
	}
	var o isa.Operand
	if mo, ok := in.MemRead(); ok {
		o = mo
	} else if mo, ok := in.MemWrite(); ok {
		o = mo
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

// evalMemAccess computes the memory-access-stage results of a load/store d:
// the register results for loads and/or the stored value for stores.
// memVal is the loaded value (producers already checked ready by the caller);
// it is ignored by pure stores.
func (d *DynInst) evalMemAccess(memVal uint64, cyc int64) error {
	in := d.In
	rd := d.srcValue
	switch in.Op {
	case isa.MOV:
		if in.Src.Kind == isa.KindMem {
			d.setReg(in.Dst.Reg, memVal, cyc)
		} else {
			// Store: data from reg or imm.
			if in.Src.Kind == isa.KindReg {
				d.storeVal = rd(in.Src.Reg)
			} else {
				d.storeVal = uint64(in.Src.Imm)
			}
		}
	case isa.PUSH:
		if in.Src.Kind == isa.KindReg {
			d.storeVal = rd(in.Src.Reg)
		} else {
			d.storeVal = uint64(in.Src.Imm)
		}
	case isa.POP:
		d.setReg(in.Dst.Reg, memVal, cyc)
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.IMUL:
		if in.Src.Kind == isa.KindMem {
			// Load form: dst = dst OP [mem].
			a := rd(in.Dst.Reg)
			var r uint64
			var fl isa.FlagsVal
			setFlags := true
			switch in.Op {
			case isa.ADD:
				r = a + memVal
				fl = isa.FlagsAdd(a, memVal, r)
			case isa.SUB:
				r = a - memVal
				fl = isa.FlagsSub(a, memVal, r)
			case isa.AND:
				r = a & memVal
				fl = isa.FlagsLogic(r)
			case isa.OR:
				r = a | memVal
				fl = isa.FlagsLogic(r)
			case isa.XOR:
				r = a ^ memVal
				fl = isa.FlagsLogic(r)
			case isa.IMUL:
				r = uint64(int64(a) * int64(memVal))
				setFlags = false
			}
			d.setReg(in.Dst.Reg, r, cyc)
			if setFlags {
				d.setReg(isa.Flags, uint64(fl), cyc)
			}
		} else {
			// Read-modify-write memory destination.
			var b uint64
			if in.Src.Kind == isa.KindReg {
				b = rd(in.Src.Reg)
			} else {
				b = uint64(in.Src.Imm)
			}
			a := memVal
			var r uint64
			var fl isa.FlagsVal
			setFlags := true
			switch in.Op {
			case isa.ADD:
				r = a + b
				fl = isa.FlagsAdd(a, b, r)
			case isa.SUB:
				r = a - b
				fl = isa.FlagsSub(a, b, r)
			case isa.AND:
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
				setFlags = false
			}
			d.storeVal = r
			if setFlags {
				d.setReg(isa.Flags, uint64(fl), cyc)
			}
		}
	case isa.CMP:
		// cmpq with a memory operand: flags only.
		var a, b uint64
		if in.Src.Kind == isa.KindMem {
			a, b = rd(in.Dst.Reg), memVal
		} else {
			a = memVal
			if in.Src.Kind == isa.KindReg {
				b = rd(in.Src.Reg)
			} else {
				b = uint64(in.Src.Imm)
			}
		}
		d.setReg(isa.Flags, uint64(isa.FlagsSub(a, b, a-b)), cyc)
	case isa.TEST:
		var a, b uint64
		if in.Src.Kind == isa.KindMem {
			a, b = rd(in.Dst.Reg), memVal
		} else {
			a = memVal
			if in.Src.Kind == isa.KindReg {
				b = rd(in.Src.Reg)
			} else {
				b = uint64(in.Src.Imm)
			}
		}
		d.setReg(isa.Flags, uint64(isa.FlagsLogic(a&b)), cyc)
	default:
		return fmt.Errorf("machine: unsupported memory op %s", in)
	}
	return nil
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
