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

	// The passes that rewrite the program, fusion and spilling, build new
	// instruction lists and label maps and copy an operand list before
	// they change it, so work shares what it does not change with p and p
	// is never modified. Every vreg numbered from firstTemp on is a
	// reload/store temporary a spill round made.
	work := *p
	work.Widths = slices.Clip(p.Widths)
	lowerForArch(&work, arch.ISA)
	firstTemp := work.NumVRegs
	sp := newSpiller(firstTemp)
	var du defUse

	var alloc allocResult
	for round := 0; ; round++ {
		if round > 64 {
			return nil, fmt.Errorf("codegen: spilling did not converge after %d rounds", round)
		}
		du.compute(&work)
		lv := computeVLiveness(&work, &du)
		ivs := buildIntervals(&work, &du, lv, firstTemp)
		var err error
		alloc, err = linearScan(ivs, budget, work.NumVRegs)
		if err != nil {
			return nil, err
		}
		if len(alloc.spilled) == 0 {
			break
		}
		for _, v := range alloc.spilled {
			if sp.slot[v] >= 0 {
				return nil, fmt.Errorf("codegen: vreg %d spilled twice; budget %d unworkable", v, budget)
			}
		}
		sp.rewrite(&work, alloc.spilled)
	}

	k := translate(&work, &alloc)
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

// spiller rewrites a program so that the given vregs live in local memory,
// inserting LDL reloads before uses and STL stores after definitions —
// the spill-everywhere strategy, which keeps the allocation state
// consistent across control-flow edges.
type spiller struct {
	localBytes int
	// slot is each original vreg's local-memory offset, -1 until it is
	// spilled. Only original vregs are ever spilled: the temporaries
	// rewrite adds are never chosen.
	slot []int64
	opds kasm.Operands // the operand lists rewrite makes or changes
}

func newSpiller(nvregs int) *spiller {
	sp := &spiller{slot: make([]int64, nvregs)}
	for v := range sp.slot {
		sp.slot[v] = -1
	}
	return sp
}

func (sp *spiller) rewrite(p *kasm.Program, spilled []kasm.VReg) {
	for _, v := range spilled {
		w := p.WidthOf(v) * 4
		// Align the slot to the access width.
		sp.localBytes = (sp.localBytes + w - 1) / w * w
		sp.slot[v] = int64(sp.localBytes)
		sp.localBytes += w
	}

	// Per instruction: the spilled vregs it touches, which need their value
	// before it (loads) and their slot updated after it (stores). Spilled
	// vreg v stands in as temp[v], made for instruction at[v]-1. A vreg
	// spilled in an earlier round no longer occurs.
	var loads, stores []kasm.VReg
	temp, at := make([]kasm.VReg, len(sp.slot)), make([]int, len(sp.slot))
	var in kasm.VInst
	var i int
	// scan renames in's spilled operands in opds to their temporaries,
	// on a copy of opds made at the first one.
	scan := func(opds []kasm.VOperand, isDst bool) []kasm.VOperand {
		copied := false
		for oi, o := range opds {
			v := o.V
			if (o.Kind != kasm.VOpdReg && o.Kind != kasm.VOpdMem) || v == kasm.NoVReg ||
				int(v) >= len(sp.slot) || sp.slot[v] < 0 {
				continue
			}
			if at[v] != i+1 {
				at[v], temp[v] = i+1, kasm.VReg(p.NumVRegs)
				p.NumVRegs++
				p.Widths = append(p.Widths, uint8(p.WidthOf(v)))
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
			if !copied {
				opds, copied = sp.opds.Copy(opds), true
			}
			opds[oi].V = temp[v]
		}
		return opds
	}

	out := make([]kasm.VInst, 0, len(p.Insts)+len(p.Insts)/2)
	oldToNew := make([]int, len(p.Insts)+1)
	for i = range p.Insts {
		oldToNew[i] = len(out)
		in = p.Insts[i]
		loads, stores = loads[:0], stores[:0]
		in.Src = scan(in.Src, false)
		in.Dst = scan(in.Dst, true)

		for _, v := range loads {
			mods, _ := sass.WidthMods(4 * p.WidthOf(v))
			out = append(out, kasm.VInst{
				Op: sass.OpLDL, Mods: mods, Pred: sass.PT,
				Dst:  sp.opds.Copy([]kasm.VOperand{kasm.VR(temp[v])}),
				Src:  sp.opds.Copy([]kasm.VOperand{kasm.VMem(kasm.NoVReg, sp.slot[v])}),
				Line: in.Line,
			})
		}
		out = append(out, in)
		for _, v := range stores {
			mods, _ := sass.WidthMods(4 * p.WidthOf(v))
			out = append(out, kasm.VInst{
				Op: sass.OpSTL, Mods: mods,
				Pred: in.Pred, PredNeg: in.PredNeg,
				Dst:  sp.opds.Copy([]kasm.VOperand{kasm.VMem(kasm.NoVReg, sp.slot[v])}),
				Src:  sp.opds.Copy([]kasm.VOperand{kasm.VR(temp[v])}),
				Line: in.Line,
			})
		}
	}
	oldToNew[len(p.Insts)] = len(out)
	p.Insts, p.Labels = out, remapLabels(p.Labels, oldToNew)
}

// remapLabels returns a new label map whose instruction indices are moved
// by oldToNew.
func remapLabels(labels map[string]int, oldToNew []int) map[string]int {
	out := make(map[string]int, len(labels))
	for name, idx := range labels {
		out[name] = oldToNew[idx]
	}
	return out
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
	// Every instruction's operands come from one slab.
	n := 0
	for i := range p.Insts {
		n += len(p.Insts[i].Dst) + len(p.Insts[i].Src)
	}
	slab := make([]sass.Operand, 0, n)
	mapAll := func(opds []kasm.VOperand) []sass.Operand {
		if len(opds) == 0 {
			return nil
		}
		for _, o := range opds {
			slab = append(slab, mapOpd(o))
		}
		return slab[len(slab)-len(opds) : len(slab) : len(slab)]
	}
	k.Insts = make([]sass.Inst, len(p.Insts))
	for i := range p.Insts {
		vin := &p.Insts[i]
		k.Insts[i] = sass.Inst{
			PC:      uint64(i) * sass.InstBytes,
			Pred:    vin.Pred,
			PredNeg: vin.PredNeg,
			Op:      vin.Op,
			Mods:    vin.Mods,
			Dst:     mapAll(vin.Dst),
			Src:     mapAll(vin.Src),
			Line:    vin.Line,
			Ctrl:    sass.DefaultCtrl(),
		}
		if vin.Op == sass.OpBRA {
			k.Insts[i].Target = uint64(p.Labels[vin.Label]) * sass.InstBytes
		}
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
	slots := make([]regSet, nslots) // each slot's pending registers
	next := 0
	var regs []sass.Reg // the instruction's sources, then its destinations

	for i := range k.Insts {
		in := &k.Insts[i]
		regs = in.SrcRegs(regs[:0])
		nsrc := len(regs)
		regs = in.DstRegs(regs)
		touched := setOf(regs)
		for s := range slots {
			if slots[s].meets(&touched) {
				in.Ctrl.WaitMask |= 1 << uint(s)
				slots[s] = regSet{}
			}
		}
		if needsWrBar(in) {
			// Find a free slot, else force a wait on the round-robin slot.
			slot := -1
			for off := 0; off < nslots; off++ {
				s := (next + off) % nslots
				if slots[s] == (regSet{}) {
					slot = s
					break
				}
			}
			if slot < 0 {
				slot = next % nslots
				in.Ctrl.WaitMask |= 1 << uint(slot)
			}
			next = (slot + 1) % nslots
			in.Ctrl.WrBar = int8(slot)
			slots[slot] = setOf(regs[nsrc:])
		}
	}
}

// regSet is a set of architectural registers, one bit each.
type regSet [(sass.NumArchRegs + 63) / 64]uint64

func setOf(regs []sass.Reg) (s regSet) {
	for _, r := range regs {
		s[r/64] |= 1 << (r % 64)
	}
	return s
}

func (s *regSet) meets(o *regSet) bool {
	for w := range s {
		if s[w]&o[w] != 0 {
			return true
		}
	}
	return false
}

func needsWrBar(in *sass.Inst) bool {
	if sass.IsLoad(in.Op) {
		return true
	}
	if sass.IsAtomic(in.Op) {
		// Only when a return value is produced into a register.
		for _, o := range in.Dst {
			if o.Kind == sass.OpdReg && !o.Reg.IsZ() {
				return true
			}
		}
	}
	return false
}
