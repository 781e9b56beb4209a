package sass

import (
	"fmt"
	"sort"
)

// Kernel is a disassembled GPU kernel: the unit of analysis for GPUscout.
type Kernel struct {
	Name string // mangled kernel name, e.g. "_Z14benchmark_funcfPf"
	Arch string // e.g. "sm_70"

	Insts []Inst

	// Resource usage, as recorded in the cubin.
	NumRegs     int // architectural registers per thread
	SharedBytes int // static shared memory per block
	LocalBytes  int // local memory per thread (spill slots live here)
	ConstBytes  int // kernel parameter area size in constant bank 0

	// Source mapping. SourceFile names the primary .cu file; Source holds
	// its text (1-based lines) when available so reports can quote it.
	SourceFile string
	Source     []string
}

// ParamBase is the constant-bank offset of the kernel parameter area,
// matching the layout real CUDA drivers use on Volta.
const ParamBase = 0x160

// InstAt returns the instruction at the given PC, or nil.
func (k *Kernel) InstAt(pc uint64) *Inst {
	i := int(pc / InstBytes)
	if i < 0 || i >= len(k.Insts) || k.Insts[i].PC != pc {
		// Fall back to a scan in case PCs are not dense.
		for j := range k.Insts {
			if k.Insts[j].PC == pc {
				return &k.Insts[j]
			}
		}
		return nil
	}
	return &k.Insts[i]
}

// SourceLine returns the quoted source text for a 1-based line number,
// or "" when the source is not embedded.
func (k *Kernel) SourceLine(line int) string {
	if line <= 0 || line > len(k.Source) {
		return ""
	}
	return k.Source[line-1]
}

// PCsForLine returns the PCs of all instructions attributed to line,
// in program order.
func (k *Kernel) PCsForLine(line int) []uint64 {
	var pcs []uint64
	for i := range k.Insts {
		if k.Insts[i].Line == line {
			pcs = append(pcs, k.Insts[i].PC)
		}
	}
	return pcs
}

// Lines returns the sorted set of source lines with attributed instructions.
func (k *Kernel) Lines() []int {
	seen := map[int]bool{}
	for i := range k.Insts {
		if l := k.Insts[i].Line; l > 0 {
			seen[l] = true
		}
	}
	lines := make([]int, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines
}

// RenumberPCs assigns dense PCs (i*InstBytes) to all instructions, as
// Validate requires after instructions are inserted or removed. It does
// not retarget branches: Target fields must already hold final PCs.
func (k *Kernel) RenumberPCs() {
	for i := range k.Insts {
		k.Insts[i].PC = uint64(i) * InstBytes
	}
}

// Validate performs structural sanity checks and returns the first
// problem found, or nil.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kernel has no name")
	}
	if len(k.Insts) == 0 {
		return fmt.Errorf("kernel %s has no instructions", k.Name)
	}
	maxPC := uint64(len(k.Insts)) * InstBytes
	sawExit := false
	var regs []Reg
	for i := range k.Insts {
		in := &k.Insts[i]
		if in.PC != uint64(i)*InstBytes {
			return fmt.Errorf("%s: instruction %d has PC %#x, want %#x", k.Name, i, in.PC, uint64(i)*InstBytes)
		}
		if in.Op == OpInvalid || in.Op >= opMax {
			return fmt.Errorf("%s: instruction %d has invalid opcode", k.Name, i)
		}
		if in.Op == OpBRA {
			if in.Target >= maxPC || in.Target%InstBytes != 0 {
				return fmt.Errorf("%s: branch at %#x targets invalid PC %#x", k.Name, in.PC, in.Target)
			}
		}
		if in.Op == OpEXIT {
			sawExit = true
		}
		regs = in.DstRegs(regs[:0])
		for _, r := range regs {
			if int(r) >= k.NumRegs && k.NumRegs > 0 && r != RZ {
				return fmt.Errorf("%s: instruction at %#x writes R%d beyond NumRegs=%d", k.Name, in.PC, r, k.NumRegs)
			}
		}
	}
	if !sawExit {
		return fmt.Errorf("kernel %s has no EXIT instruction", k.Name)
	}
	return nil
}

// CountOpcodes tallies instructions by base opcode.
func (k *Kernel) CountOpcodes() map[Opcode]int {
	m := make(map[Opcode]int)
	for i := range k.Insts {
		m[k.Insts[i].Op]++
	}
	return m
}
