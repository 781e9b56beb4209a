package codegen

import (
	"fmt"
	"slices"

	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// Options configure compilation.
type Options struct {
	// MaxRegs bounds physical registers per thread, like nvcc's
	// -maxrregcount. 0 means the target's architectural maximum. Lower
	// budgets force register spilling to local memory.
	MaxRegs int

	// Arch selects the target architecture. The zero value targets the
	// default Volta-class machine (gpu.V100). The descriptor drives
	// per-arch lowering — instruction selection such as LDG+STS →
	// LDGSTS fusion on async-copy ISAs, the per-thread register ceiling,
	// and the number of dependency scoreboards — and stamps the produced
	// kernel's arch tag.
	Arch gpu.Arch
}

// Compile lowers a kasm.Program to an executable sass.Kernel: per-arch
// instruction selection, register allocation (with spilling), label
// resolution, scoreboard assignment and resource accounting.
func Compile(p *kasm.Program, opts Options) (*sass.Kernel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	arch := opts.Arch
	if arch.Name == "" {
		arch = gpu.V100()
	}
	maxRegs := arch.MaxRegsPerThread
	if maxRegs <= 0 || maxRegs > sass.NumArchRegs {
		maxRegs = sass.NumArchRegs
	}
	budget := opts.MaxRegs
	if budget <= 0 || budget > maxRegs {
		budget = maxRegs
	}
	if budget < 8 {
		return nil, fmt.Errorf("codegen: register budget %d below minimum 8", budget)
	}

	// Work on a copy: spill rewriting mutates the program.
	work := cloneProgram(p)
	lowerForArch(work, arch.ISA)
	noSpill := map[kasm.VReg]bool{}
	spilledEver := map[kasm.VReg]bool{}
	sp := &spiller{}

	var alloc *allocResult
	for round := 0; ; round++ {
		if round > 64 {
			return nil, fmt.Errorf("codegen: spilling did not converge after %d rounds", round)
		}
		lv := computeVLiveness(work)
		ivs := buildIntervals(work, lv, noSpill)
		var err error
		alloc, err = linearScan(ivs, budget)
		if err != nil {
			return nil, err
		}
		if len(alloc.spilled) == 0 {
			break
		}
		for _, v := range alloc.spilled {
			if spilledEver[v] {
				return nil, fmt.Errorf("codegen: vreg %d spilled twice; budget %d unworkable", v, budget)
			}
			spilledEver[v] = true
		}
		sp.rewrite(work, alloc.spilled, noSpill)
	}

	k := translate(work, alloc)
	k.LocalBytes = sp.localBytes
	if opts.Arch.Name != "" {
		// An explicit target stamps the kernel; otherwise the program's
		// own tag (what the builder was constructed with) stands.
		k.Arch = arch.SM
	}
	assignScoreboards(k, arch.ISA.Scoreboards)
	if err := k.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: produced invalid kernel: %w", err)
	}
	return k, nil
}

func cloneProgram(p *kasm.Program) *kasm.Program {
	c := *p
	c.Insts = make([]kasm.VInst, len(p.Insts))
	for i := range p.Insts {
		in := p.Insts[i]
		in.Dst = append([]kasm.VOperand(nil), in.Dst...)
		in.Src = append([]kasm.VOperand(nil), in.Src...)
		c.Insts[i] = in
	}
	c.Widths = append([]uint8(nil), p.Widths...)
	c.Labels = make(map[string]int, len(p.Labels))
	for k, v := range p.Labels {
		c.Labels[k] = v
	}
	return &c
}

// spiller rewrites a program so that the given vregs live in local memory,
// inserting LDL reloads before uses and STL stores after definitions —
// the spill-everywhere strategy, which keeps the allocation state
// consistent across control-flow edges.
type spiller struct {
	localBytes int
	slots      map[kasm.VReg]int64
}

func (sp *spiller) rewrite(p *kasm.Program, spilled []kasm.VReg, noSpill map[kasm.VReg]bool) {
	if sp.slots == nil {
		sp.slots = map[kasm.VReg]int64{}
	}
	isSpilled := map[kasm.VReg]bool{}
	for _, v := range spilled {
		isSpilled[v] = true
		w := p.WidthOf(v) * 4
		// Align the slot to the access width.
		sp.localBytes = (sp.localBytes + w - 1) / w * w
		sp.slots[v] = int64(sp.localBytes)
		sp.localBytes += w
	}

	newReg := func(width int) kasm.VReg {
		v := kasm.VReg(p.NumVRegs)
		p.NumVRegs++
		p.Widths = append(p.Widths, uint8(width))
		noSpill[v] = true
		return v
	}

	var out []kasm.VInst
	oldToNew := make([]int, len(p.Insts)+1)
	for i := range p.Insts {
		oldToNew[i] = len(out)
		in := p.Insts[i]

		// Which spilled vregs does this instruction touch?
		var loads []kasm.VReg  // need value before inst
		var stores []kasm.VReg // need slot updated after inst
		temps := map[kasm.VReg]kasm.VReg{}

		scan := func(opds []kasm.VOperand, isDst bool) {
			for oi := range opds {
				o := &opds[oi]
				if (o.Kind != kasm.VOpdReg && o.Kind != kasm.VOpdMem) || o.V == kasm.NoVReg || !isSpilled[o.V] {
					continue
				}
				v := o.V
				t, have := temps[v]
				if !have {
					t = newReg(p.WidthOf(v))
					temps[v] = t
				}
				if isDst && o.Kind == kasm.VOpdReg {
					// Partial writes must load-modify-store; full writes
					// only store.
					written, _, _ := sass.OperandWords(in.Op, in.Mods)
					partial := o.Elem != 0 || written < p.WidthOf(v)
					if partial && !slices.Contains(loads, v) {
						loads = append(loads, v)
					}
					if !slices.Contains(stores, v) {
						stores = append(stores, v)
					}
				} else if !slices.Contains(loads, v) {
					// Source reads and memory-operand bases reload first.
					loads = append(loads, v)
				}
				o.V = t
			}
		}
		scan(in.Src, false)
		scan(in.Dst, true)

		for _, v := range loads {
			out = append(out, kasm.VInst{
				Op: sass.OpLDL, Mods: widthModsFor(p.WidthOf(v)), Pred: sass.PT,
				Dst:  []kasm.VOperand{kasm.VR(temps[v])},
				Src:  []kasm.VOperand{kasm.VMem(kasm.NoVReg, sp.slots[v])},
				Line: in.Line,
			})
		}
		out = append(out, in)
		for _, v := range stores {
			out = append(out, kasm.VInst{
				Op: sass.OpSTL, Mods: widthModsFor(p.WidthOf(v)),
				Pred: in.Pred, PredNeg: in.PredNeg,
				Dst:  []kasm.VOperand{kasm.VMem(kasm.NoVReg, sp.slots[v])},
				Src:  []kasm.VOperand{kasm.VR(temps[v])},
				Line: in.Line,
			})
		}
	}
	oldToNew[len(p.Insts)] = len(out)
	for name, idx := range p.Labels {
		p.Labels[name] = oldToNew[idx]
	}
	p.Insts = out
}

func widthModsFor(widthWords int) []string {
	switch widthWords {
	case 2:
		return []string{"64"}
	case 4:
		return []string{"128"}
	default:
		return nil
	}
}

// translate converts the allocated program into sass instructions.
func translate(p *kasm.Program, alloc *allocResult) *sass.Kernel {
	k := &sass.Kernel{
		Name:        p.Name,
		Arch:        p.Arch,
		SharedBytes: p.ShmemBytes,
		ConstBytes:  p.ConstBytes(),
		SourceFile:  p.SourceFile,
		Source:      p.Source,
	}
	mapOpd := func(o kasm.VOperand) sass.Operand {
		switch o.Kind {
		case kasm.VOpdReg:
			r := alloc.phys[o.V] + sass.Reg(o.Elem)
			so := sass.R(r)
			so.Neg = o.Neg
			return so
		case kasm.VOpdZero:
			return sass.R(sass.RZ)
		case kasm.VOpdImm:
			return sass.Imm(o.Imm)
		case kasm.VOpdMem:
			base := sass.RZ
			if o.V != kasm.NoVReg {
				base = alloc.phys[o.V]
			}
			return sass.Mem(base, o.Imm)
		case kasm.VOpdConst:
			return sass.Const(o.Bank, o.Imm)
		case kasm.VOpdPred:
			po := sass.P(o.Pred)
			po.Neg = o.Neg
			return po
		case kasm.VOpdSpecial:
			return sass.SR(o.Special)
		}
		return sass.Operand{}
	}
	for i := range p.Insts {
		vin := &p.Insts[i]
		in := sass.Inst{
			PC:      uint64(i) * sass.InstBytes,
			Pred:    vin.Pred,
			PredNeg: vin.PredNeg,
			Op:      vin.Op,
			Mods:    vin.Mods,
			Line:    vin.Line,
			Ctrl:    sass.DefaultCtrl(),
		}
		for _, o := range vin.Dst {
			in.Dst = append(in.Dst, mapOpd(o))
		}
		for _, o := range vin.Src {
			in.Src = append(in.Src, mapOpd(o))
		}
		if vin.Op == sass.OpBRA {
			in.Target = uint64(p.Labels[vin.Label]) * sass.InstBytes
		}
		k.Insts = append(k.Insts, in)
	}
	k.NumRegs = alloc.maxReg + 1
	if k.NumRegs < 4 {
		k.NumRegs = 4
	}
	return k
}

// assignScoreboards walks the kernel and assigns Volta-style control
// info: variable-latency instructions (memory loads, atomics with return)
// set a write scoreboard; the first subsequent instruction reading or
// overwriting one of the pending registers carries the slot in its wait
// mask. The number of hardware slots comes from the arch descriptor
// (ISADesc.Scoreboards). The simulator enforces dependencies dynamically
// as well; the static info mirrors what real SASS encodes and is shown by
// the disassembler.
func assignScoreboards(k *sass.Kernel, nslots int) {
	if nslots <= 0 {
		nslots = 6
	}
	type pending struct {
		regs []sass.Reg
	}
	slots := make([]pending, nslots)
	next := 0
	var scratch []sass.Reg

	intersects := func(regs []sass.Reg, set []sass.Reg) bool {
		for _, r := range regs {
			for _, s := range set {
				if r == s {
					return true
				}
			}
		}
		return false
	}

	for i := range k.Insts {
		in := &k.Insts[i]
		srcs := in.SrcRegs(scratch[:0])
		dsts := in.DstRegs(nil)
		all := append(append([]sass.Reg(nil), srcs...), dsts...)
		for s := range slots {
			if len(slots[s].regs) > 0 && intersects(all, slots[s].regs) {
				in.Ctrl.WaitMask |= 1 << uint(s)
				slots[s].regs = nil
			}
		}
		if needsWrBar(in) {
			// Find a free slot, else force a wait on the round-robin slot.
			slot := -1
			for off := 0; off < nslots; off++ {
				s := (next + off) % nslots
				if len(slots[s].regs) == 0 {
					slot = s
					break
				}
			}
			if slot < 0 {
				slot = next % nslots
				in.Ctrl.WaitMask |= 1 << uint(slot)
				slots[slot].regs = nil
			}
			next = (slot + 1) % nslots
			in.Ctrl.WrBar = int8(slot)
			slots[slot].regs = append([]sass.Reg(nil), dsts...)
		}
	}
}

func needsWrBar(in *sass.Inst) bool {
	switch in.Op {
	case sass.OpLDG, sass.OpLDS, sass.OpLDL, sass.OpLDC, sass.OpTEX:
		return true
	case sass.OpATOM, sass.OpATOMS:
		// Only when a return value is produced into a register.
		for _, o := range in.Dst {
			if o.Kind == sass.OpdReg && !o.Reg.IsZ() {
				return true
			}
		}
	}
	return false
}
