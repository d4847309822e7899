// Package isa defines the x86-flavoured instruction set used throughout the
// reproduction: registers, opcodes, operands and addressing modes, and the
// Instruction type shared by the assembler, the functional emulator, the
// trace-based ILP analyser and the many-core machine simulator.
//
// The ISA is the ~25-instruction subset the paper's own examples use
// (Figs. 2 and 5), written in gas (AT&T) syntax with the destination as the
// rightmost operand, extended with the paper's two new control instructions:
//
//	fork    target   // start a new section at the next instruction,
//	                 // continue this flow at target (no return address)
//	endfork          // terminate the current section (no return)
//
// Code addresses are instruction indices (one instruction per code address);
// data addresses are byte addresses in a separate data/stack space. All data
// operations are 64-bit ("q" suffix).
//
// Every opcode has one row in the operand table (OpInfo): its mnemonic,
// operand shape, which operands it reads and writes, whether it writes
// Flags, its implicit registers and stack access, and its base pipeline
// class. The register and memory queries on Instruction (RegReads,
// RegWrites, AddrRegs, MemRead, MemWrite, WritesFlags, Classify) are all
// derived from that row, so the assembler, the tracer, the ILP analyses and
// the machine cannot disagree about an instruction's operands. An
// instruction touches at most one data address — a load and a store of the
// same word for read-modify-write forms — because the machine's memory
// stage keeps one address per instruction; the assembler rejects forms that
// would touch two (push and pop with a memory operand).
package isa

import (
	"fmt"
	"math/bits"
)

// Reg identifies an architectural register. The numbering follows the SysV
// x86-64 convention so that disassembly matches the paper's listings.
type Reg uint8

// Architectural registers. Flags is modelled as an explicit register so that
// the dependence analyses can track cmp→jcc producer/consumer pairs exactly
// like data dependences.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	Flags // condition codes, written by cmp/test/ALU ops, read by jcc/setcc
	NumRegs
)

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15", "flags",
}

// String returns the gas-style register name without the % sigil.
func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// ParseReg maps a register name (without %) to its Reg value.
func ParseReg(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return 0, false
}

// IsGPR reports whether r is a general-purpose register (not Flags).
func (r Reg) IsGPR() bool { return r < Flags }

// RegMask is a bitset over the architectural registers, the allocation-free
// representation of small register sets (dependence analyses, the
// simulator's address-source classification and read/write deduplication).
type RegMask uint32

// The register file must fit in a RegMask (compile-time check: the shift
// overflows the untyped constant if NumRegs outgrows 32).
const _ RegMask = 1 << (NumRegs - 1)

// Has reports whether r is in the set.
func (m RegMask) Has(r Reg) bool { return m&(1<<r) != 0 }

// Add inserts r into the set.
func (m *RegMask) Add(r Reg) { *m |= 1 << r }

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. Operand order follows gas: src first, dst last.
const (
	NOP Op = iota

	// Data movement.
	MOV // movq src, dst (reg/imm/mem -> reg, reg/imm -> mem)
	LEA // leaq mem, reg (address computation only)

	// Integer ALU, two-operand: dst = dst OP src. Set Flags.
	ADD
	SUB
	AND
	OR
	XOR
	IMUL // two-operand signed multiply (no flags dependence downstream used)
	SHL  // shift left by imm or %rcx (low 6 bits)
	SHR  // logical shift right
	SAR  // arithmetic shift right

	// One-operand ALU. Set Flags.
	NEG
	NOT // does not set flags on real x86; we follow x86 (no flags write)
	INC
	DEC

	// Division: unsigned divq src divides rdx:rax by src; quotient -> rax,
	// remainder -> rdx. cqto sign-extends rax into rdx for idivq.
	DIV
	IDIV
	CQTO

	// Comparison: set Flags only.
	CMP  // cmpq src, dst : flags from dst - src
	TEST // testq src, dst : flags from dst & src

	// Conditional set: setCC dst (dst = 0/1 from Flags).
	SETcc

	// Stack.
	PUSH // pushq src : rsp -= 8; [rsp] = src
	POP  // popq dst  : dst = [rsp]; rsp += 8

	// Control flow.
	JMP  // unconditional, direct target
	Jcc  // conditional, direct target
	CALL // push next code address (as a data value on the stack); jump
	RET  // pop code address; jump

	// The paper's additions.
	FORK    // start new section at next instruction; continue at target
	ENDFORK // terminate the current section

	HLT // stop the machine (end of program)

	NumOps
)

// String returns the gas mnemonic (without condition suffix for Jcc/SETcc).
func (o Op) String() string {
	if o < NumOps {
		return opTable[o].Name
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Cond enumerates condition codes for Jcc and SETcc.
type Cond uint8

// Condition codes, matching x86 semantics over the Flags register.
const (
	CondE  Cond = iota // equal: ZF
	CondNE             // not equal: !ZF
	CondA              // unsigned above: !CF && !ZF
	CondAE             // unsigned above or equal: !CF
	CondB              // unsigned below: CF
	CondBE             // unsigned below or equal: CF || ZF
	CondG              // signed greater: !ZF && SF==OF
	CondGE             // signed greater or equal: SF==OF
	CondL              // signed less: SF!=OF
	CondLE             // signed less or equal: ZF || SF!=OF
	CondS              // sign: SF
	CondNS             // not sign: !SF
	NumConds
)

var condNames = [NumConds]string{"e", "ne", "a", "ae", "b", "be", "g", "ge", "l", "le", "s", "ns"}

// String returns the x86 condition suffix ("e", "ne", "a", ...).
func (c Cond) String() string {
	if c < NumConds {
		return condNames[c]
	}
	return fmt.Sprintf("cc?%d", uint8(c))
}

// ParseCond maps a condition suffix to its Cond value.
func ParseCond(s string) (Cond, bool) {
	for i, n := range condNames {
		if n == s {
			return Cond(i), true
		}
	}
	return 0, false
}

// FlagsVal packs the four condition flags into a register-sized value so that
// Flags flows through the same 64-bit datapaths as every other register.
type FlagsVal uint64

// Flag bit positions within a FlagsVal.
const (
	FlagZ FlagsVal = 1 << iota
	FlagS
	FlagC
	FlagO
)

// Eval evaluates condition c against packed flags f.
func (c Cond) Eval(f FlagsVal) bool {
	zf := f&FlagZ != 0
	sf := f&FlagS != 0
	cf := f&FlagC != 0
	of := f&FlagO != 0
	switch c {
	case CondE:
		return zf
	case CondNE:
		return !zf
	case CondA:
		return !cf && !zf
	case CondAE:
		return !cf
	case CondB:
		return cf
	case CondBE:
		return cf || zf
	case CondG:
		return !zf && sf == of
	case CondGE:
		return sf == of
	case CondL:
		return sf != of
	case CondLE:
		return zf || sf != of
	case CondS:
		return sf
	case CondNS:
		return !sf
	}
	return false
}

// OperandKind discriminates Operand variants.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg              // %rax
	KindImm              // $42 (also resolved label addresses for jumps)
	KindMem              // disp(base,index,scale)
)

// Operand is one instruction operand. Mem operands use the full x86 form
// disp(base,index,scale); Base/Index of NumRegs mean "absent".
type Operand struct {
	Kind  OperandKind
	Reg   Reg    // KindReg
	Imm   int64  // KindImm: value; KindMem: displacement
	Base  Reg    // KindMem
	Index Reg    // KindMem
	Scale uint8  // KindMem: 1, 2, 4 or 8
	Sym   string // optional symbol name the Imm/displacement came from
}

// NoReg marks an absent base or index register in a Mem operand.
const NoReg = NumRegs

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// MemOp returns a memory operand disp(base,index,scale).
func MemOp(disp int64, base, index Reg, scale uint8) Operand {
	if scale == 0 {
		scale = 1
	}
	return Operand{Kind: KindMem, Imm: disp, Base: base, Index: index, Scale: scale}
}

// MemBase returns the common disp(base) memory operand.
func MemBase(disp int64, base Reg) Operand { return MemOp(disp, base, NoReg, 1) }

// String renders the operand in gas syntax.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return ""
	case KindReg:
		return "%" + o.Reg.String()
	case KindImm:
		if o.Sym != "" {
			return "$" + o.Sym
		}
		return fmt.Sprintf("$%d", o.Imm)
	case KindMem:
		s := ""
		if o.Sym != "" {
			s = o.Sym
			if o.Imm != 0 {
				s += fmt.Sprintf("%+d", o.Imm)
			}
		} else if o.Imm != 0 {
			s = fmt.Sprintf("%d", o.Imm)
		}
		if o.Base == NoReg && o.Index == NoReg {
			return s
		}
		s += "("
		if o.Base != NoReg {
			s += "%" + o.Base.String()
		}
		if o.Index != NoReg {
			s += ",%" + o.Index.String()
			s += fmt.Sprintf(",%d", o.Scale)
		}
		return s + ")"
	}
	return "?"
}

// Instruction is one decoded instruction. For two-operand forms Src is the
// gas first operand and Dst the second (destination). Control instructions
// put their target code address in Target (an instruction index).
type Instruction struct {
	Op     Op
	Cond   Cond // for Jcc / SETcc
	Src    Operand
	Dst    Operand
	Target int64  // code address for JMP/Jcc/CALL/FORK
	Label  string // symbolic target, kept for disassembly
}

// String disassembles the instruction in gas syntax.
func (in Instruction) String() string {
	switch in.Op.Info().Shape {
	case ShapeNone:
		return in.Op.String()
	case ShapeTarget:
		mn := in.Op.String()
		if in.Op == Jcc {
			mn += in.Cond.String()
		}
		if in.Label != "" {
			return fmt.Sprintf("%s %s", mn, in.Label)
		}
		return fmt.Sprintf("%s %d", mn, in.Target)
	case ShapeDst:
		if in.Op == SETcc {
			return fmt.Sprintf("set%s %s", in.Cond, in.Dst)
		}
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case ShapeSrc:
		return fmt.Sprintf("%s %s", in.Op, in.Src)
	}
	return fmt.Sprintf("%s %s, %s", in.Op, in.Src, in.Dst)
}

// Class groups opcodes by their pipeline treatment in the paper's core.
type Class uint8

// Instruction classes. The fetch-decode stage computes ClassSimple and
// ClassControl instructions in-stage when their sources are full; loads,
// stores and complex integer ops (mul/div) execute later, out of order.
const (
	ClassSimple  Class = iota // ALU computable in the fetch-decode stage
	ClassComplex              // imul/div: executed in the EW stage only
	ClassLoad                 // reads data memory
	ClassStore                // writes data memory
	ClassControl              // jmp/jcc/call/ret/fork/endfork/hlt
)

// Shape says which operand slots an opcode's assembly form fills.
type Shape uint8

// Operand shapes.
const (
	ShapeNone   Shape = iota // no operand: nop, cqto, ret, endfork, hlt
	ShapeSrcDst              // "op src, dst"
	ShapeSrc                 // "op src": push
	ShapeDst                 // "op dst": neg/not/inc/dec, the divides, pop, setcc
	ShapeTarget              // "op label": jmp, jcc, call, fork
)

// Roles says what an opcode does with the operands its shape names.
type Roles uint8

// Operand roles. A memory operand whose value is read is a load, a memory
// operand that is written is a store; the registers forming its address
// are read either way (lea reads nothing but its source's address).
const (
	SrcRead      Roles = 1 << iota // the source's value is an input
	DstRead                        // the destination's old value is an input
	DstWritten                     // the result is written to the destination
	FlagsWritten                   // the condition flags are written
)

// Stack says how an opcode touches the stack slot at rsp.
type Stack uint8

// Implicit stack accesses.
const (
	StackNone Stack = iota
	StackPush       // stores at rsp-8: push, call
	StackPop        // loads at rsp: pop, ret
)

// OpInfo is an opcode's row in the operand table: every question the
// assembler, the emulator's tracer, the ILP analyses and the machine ask
// about which registers and memory an instruction reads and writes is
// answered from it, so they cannot disagree.
type OpInfo struct {
	Name           string // gas mnemonic (the condition suffix of jcc/setcc excluded)
	Shape          Shape
	Roles          Roles
	ImplicitReads  RegMask // registers read without being named
	ImplicitWrites RegMask // registers written without being named
	Stack          Stack
	Class          Class // pipeline class when no operand is in memory
}

const (
	rsp   = RegMask(1) << RSP
	rax   = RegMask(1) << RAX
	rdx   = RegMask(1) << RDX
	flags = RegMask(1) << Flags

	alu   = SrcRead | DstRead | DstWritten | FlagsWritten // dst = dst OP src
	unary = DstRead | DstWritten | FlagsWritten           // dst = OP dst
)

var opTable = [NumOps]OpInfo{
	NOP:     {"nop", ShapeNone, 0, 0, 0, StackNone, ClassSimple},
	MOV:     {"movq", ShapeSrcDst, SrcRead | DstWritten, 0, 0, StackNone, ClassSimple},
	LEA:     {"leaq", ShapeSrcDst, DstWritten, 0, 0, StackNone, ClassSimple},
	ADD:     {"addq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	SUB:     {"subq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	AND:     {"andq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	OR:      {"orq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	XOR:     {"xorq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	IMUL:    {"imulq", ShapeSrcDst, alu &^ FlagsWritten, 0, 0, StackNone, ClassComplex},
	SHL:     {"shlq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	SHR:     {"shrq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	SAR:     {"sarq", ShapeSrcDst, alu, 0, 0, StackNone, ClassSimple},
	NEG:     {"negq", ShapeDst, unary, 0, 0, StackNone, ClassSimple},
	NOT:     {"notq", ShapeDst, unary &^ FlagsWritten, 0, 0, StackNone, ClassSimple},
	INC:     {"incq", ShapeDst, unary, 0, 0, StackNone, ClassSimple},
	DEC:     {"decq", ShapeDst, unary, 0, 0, StackNone, ClassSimple},
	DIV:     {"divq", ShapeDst, DstRead, rax | rdx, rax | rdx, StackNone, ClassComplex},
	IDIV:    {"idivq", ShapeDst, DstRead, rax | rdx, rax | rdx, StackNone, ClassComplex},
	CQTO:    {"cqto", ShapeNone, 0, rax, rdx, StackNone, ClassSimple},
	CMP:     {"cmpq", ShapeSrcDst, SrcRead | DstRead | FlagsWritten, 0, 0, StackNone, ClassSimple},
	TEST:    {"testq", ShapeSrcDst, SrcRead | DstRead | FlagsWritten, 0, 0, StackNone, ClassSimple},
	SETcc:   {"set", ShapeDst, DstWritten, flags, 0, StackNone, ClassSimple},
	PUSH:    {"pushq", ShapeSrc, SrcRead, rsp, rsp, StackPush, ClassSimple},
	POP:     {"popq", ShapeDst, DstWritten, rsp, rsp, StackPop, ClassSimple},
	JMP:     {"jmp", ShapeTarget, 0, 0, 0, StackNone, ClassControl},
	Jcc:     {"j", ShapeTarget, 0, flags, 0, StackNone, ClassControl},
	CALL:    {"call", ShapeTarget, 0, rsp, rsp, StackPush, ClassControl},
	RET:     {"ret", ShapeNone, 0, rsp, rsp, StackPop, ClassControl},
	FORK:    {"fork", ShapeTarget, 0, 0, 0, StackNone, ClassControl},
	ENDFORK: {"endfork", ShapeNone, 0, 0, 0, StackNone, ClassControl},
	HLT:     {"hlt", ShapeNone, 0, 0, 0, StackNone, ClassControl},
}

// Info returns the opcode's row in the operand table.
func (o Op) Info() *OpInfo { return &opTable[o] }

// Classify returns the pipeline class of the instruction: control
// instructions are control; otherwise an instruction that writes memory is
// a store, one that only reads memory is a load, and the rest take their
// opcode's class.
func (in *Instruction) Classify() Class {
	info := in.Op.Info()
	switch {
	case info.Class == ClassControl:
		return ClassControl
	case in.memWrite(info) != nil:
		return ClassStore
	case in.memRead(info) != nil:
		return ClassLoad
	}
	return info.Class
}

// WritesFlags reports whether the instruction writes the Flags register.
func (in *Instruction) WritesFlags() bool { return in.Op.Info().Roles&FlagsWritten != 0 }

// appendMask appends the registers of m to buf in register order.
func appendMask(buf []Reg, m RegMask) []Reg {
	for ; m != 0; m &= m - 1 {
		buf = append(buf, Reg(bits.TrailingZeros32(uint32(m))))
	}
	return buf
}

// appendAddr appends the base and index registers of a memory operand.
func appendAddr(buf []Reg, o *Operand) []Reg {
	if o.Base < NumRegs {
		buf = append(buf, o.Base)
	}
	if o.Index < NumRegs {
		buf = append(buf, o.Index)
	}
	return buf
}

// appendOperandReads appends what reading operand o costs in registers: the
// register itself when its value is read, the address registers of a
// memory operand in any case.
func appendOperandReads(buf []Reg, o *Operand, read bool) []Reg {
	switch o.Kind {
	case KindReg:
		if read {
			buf = append(buf, o.Reg)
		}
	case KindMem:
		buf = appendAddr(buf, o)
	}
	return buf
}

// RegReads appends to buf the registers read by the instruction (including
// address-component registers of memory operands and Flags) and returns it:
// the implicit reads first, then the source's, then the destination's.
func (in *Instruction) RegReads(buf []Reg) []Reg {
	info := in.Op.Info()
	buf = appendMask(buf, info.ImplicitReads)
	buf = appendOperandReads(buf, &in.Src, info.Roles&SrcRead != 0)
	return appendOperandReads(buf, &in.Dst, info.Roles&DstRead != 0)
}

// RegWrites appends to buf the registers written by the instruction
// (including Flags where applicable) and returns it: the implicit writes
// first, then a register destination, then Flags.
func (in *Instruction) RegWrites(buf []Reg) []Reg {
	info := in.Op.Info()
	buf = appendMask(buf, info.ImplicitWrites)
	if info.Roles&DstWritten != 0 && in.Dst.Kind == KindReg {
		buf = append(buf, in.Dst.Reg)
	}
	if info.Roles&FlagsWritten != 0 {
		buf = append(buf, Flags)
	}
	return buf
}

// AddrRegs returns the set of registers that feed only the address
// computation of a memory instruction. The paper's pipeline splits a memory
// op's sources in two: address-forming registers gate the execute-write-back
// stage (which computes the access address), while the remaining data
// sources are needed only at memory access. Non-memory instructions return
// the empty set.
func (in *Instruction) AddrRegs() RegMask {
	info := in.Op.Info()
	var m RegMask
	if o := in.memRead(info); o != nil {
		m |= o.addrRegs()
	}
	if o := in.memWrite(info); o != nil {
		m |= o.addrRegs()
	}
	return m
}

// addrRegs returns the base and index registers of a memory operand.
func (o *Operand) addrRegs() RegMask {
	var m RegMask
	if o.Base < NumRegs {
		m.Add(o.Base)
	}
	if o.Index < NumRegs {
		m.Add(o.Index)
	}
	return m
}

// The stack slots push/call store to and pop/ret load from.
var (
	stackPush = MemBase(-8, RSP)
	stackPop  = MemBase(0, RSP)
)

// memRead returns the operand the instruction loads through, or nil.
func (in *Instruction) memRead(info *OpInfo) *Operand {
	switch {
	case info.Stack == StackPop:
		return &stackPop
	case in.Src.Kind == KindMem && info.Roles&SrcRead != 0:
		return &in.Src
	case in.Dst.Kind == KindMem && info.Roles&DstRead != 0:
		return &in.Dst
	}
	return nil
}

// memWrite returns the operand the instruction stores through, or nil.
func (in *Instruction) memWrite(info *OpInfo) *Operand {
	switch {
	case info.Stack == StackPush:
		return &stackPush
	case in.Dst.Kind == KindMem && info.Roles&DstWritten != 0:
		return &in.Dst
	}
	return nil
}

// MemRead reports whether the instruction loads from data memory, and which
// operand holds the address. POP/RET load at rsp.
func (in *Instruction) MemRead() (Operand, bool) {
	if o := in.memRead(in.Op.Info()); o != nil {
		return *o, true
	}
	return Operand{}, false
}

// MemWrite reports whether the instruction stores to data memory, and which
// operand holds the address. PUSH/CALL store at the post-decrement rsp.
func (in *Instruction) MemWrite() (Operand, bool) {
	if o := in.memWrite(in.Op.Info()); o != nil {
		return *o, true
	}
	return Operand{}, false
}
