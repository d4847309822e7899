package machine

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// memoryForms lists every form of the ISA that touches data memory and that
// the assembler accepts: each mnemonic with each combination of register,
// immediate and memory operands that includes a memory operand (plus push
// and pop, whose memory access is the implicit stack slot). Combinations
// the assembler rejects are skipped, so the list follows the assembler.
func memoryForms() []string {
	reg := func(mn string) string {
		if strings.HasPrefix(mn, "sh") || strings.HasPrefix(mn, "sar") {
			return "%rcx" // shift counts conventionally live in rcx
		}
		return "%rbx"
	}
	const mem, imm = "8(%rdi)", "$3"
	var cands []string
	for _, mn := range []string{"movq", "leaq", "addq", "subq", "andq", "orq", "xorq", "imulq",
		"shlq", "shrq", "sarq", "cmpq", "testq"} {
		cands = append(cands,
			mn+" "+mem+", %rax",
			mn+" "+reg(mn)+", "+mem,
			mn+" "+imm+", "+mem)
	}
	for _, mn := range []string{"shlq", "shrq", "sarq", "negq", "notq", "incq", "decq", "divq", "idivq",
		"sete", "setl", "pushq", "popq"} {
		cands = append(cands, mn+" "+mem)
	}
	cands = append(cands, "pushq %rbx", "pushq $3", "popq %rbx")
	var forms []string
	for _, f := range cands {
		if _, err := asm.Assemble(f); err == nil {
			forms = append(forms, f)
		}
	}
	return forms
}

// formProgram runs form twice: first in the section that sets up the
// registers and memory, then in the continuation section of a fork, where
// its register sources and its memory word arrive through renaming
// requests. The divides get the rdx their dividend needs.
func formProgram(form string) string {
	pre := ""
	switch {
	case strings.HasPrefix(form, "divq"):
		pre = "movq $0, %rdx"
	case strings.HasPrefix(form, "idivq"):
		pre = "cqto"
	}
	return fmt.Sprintf(`
_start: movq $w, %%rdi
        movq $100, %%rax
        movq $-5, %%rbx
        movq $3, %%rcx
        movq $0, %%rdx
        fork f
        %[1]s
        %[2]s
        hlt
f:      %[1]s
        %[2]s
        addq $1, 16(%%rdi)
        cmpq %%rbx, %%rax
        endfork
.data
w:      .quad 5, 7, 11, 13
`, pre, form)
}

// TestMemoryOperandForms checks every memory form against the emulator: the
// final registers (Flags included), the whole data segment and the top of
// the stack must match under both schedulers, on one core and on four.
func TestMemoryOperandForms(t *testing.T) {
	const stackWindow = 64
	forms := memoryForms()
	if len(forms) < 40 {
		t.Fatalf("only %d memory forms assemble", len(forms))
	}
	for _, form := range forms {
		t.Run(strings.ReplaceAll(form, " ", "_"), func(t *testing.T) {
			prog, err := asm.Assemble(formProgram(form))
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := emu.RunProgram(prog)
			if err != nil {
				t.Fatalf("emulator: %v", err)
			}
			for _, cores := range []int{1, 4} {
				for _, dense := range []bool{false, true} {
					leg := fmt.Sprintf("cores=%d dense=%v", cores, dense)
					cfg := DefaultConfig(cores)
					cfg.Dense = dense
					m, err := New(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := m.Run(); err != nil {
						t.Errorf("%s: %v", leg, err)
						continue
					}
					for r := isa.Reg(0); r < isa.NumRegs; r++ {
						if m.arch[r] != cpu.Regs[r] {
							t.Errorf("%s: %s = %#x, emulator %#x", leg, r, m.arch[r], cpu.Regs[r])
						}
					}
					for a := isa.DataBase; a < isa.DataBase+uint64(len(prog.Data)); a += 8 {
						if got, want := m.DMH().ReadU64(a), cpu.Mem.ReadU64(a); got != want {
							t.Errorf("%s: data word %#x = %d, emulator %d", leg, a, got, want)
						}
					}
					for a := isa.StackTop - stackWindow; a < isa.StackTop; a += 8 {
						if got, want := m.DMH().ReadU64(a), cpu.Mem.ReadU64(a); got != want {
							t.Errorf("%s: stack word %#x = %d, emulator %d", leg, a, got, want)
						}
					}
				}
			}
		})
	}
}
