package codegen

import (
	"slices"

	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// lowerForArch applies per-architecture instruction selection to the
// arch-neutral kasm program, driven entirely by the gpu.ISADesc
// descriptor. Volta-class targets (no async copy) are the identity
// transform, which is what keeps sm_70 output byte-identical to the
// pre-descriptor compiler. It runs before register allocation so that
// registers freed by fusion never reach the allocator.
func lowerForArch(p *kasm.Program, isa gpu.ISADesc) {
	if isa.AsyncCopy {
		fuseAsyncCopies(p, isa)
	}
}

// writesVReg reports whether the instruction defines any word of vreg v.
func writesVReg(in *kasm.VInst, v kasm.VReg) bool {
	for _, o := range in.Dst {
		if o.Kind == kasm.VOpdReg && o.V == v {
			return true
		}
	}
	return false
}

// writesPred reports whether the instruction defines predicate pr.
func writesPred(in *kasm.VInst, pr sass.Pred) bool {
	for _, o := range in.Dst {
		if o.Kind == kasm.VOpdPred && o.Pred == pr {
			return true
		}
	}
	return false
}

// fuseAsyncCopies rewrites LDG+STS staging pairs into single LDGSTS
// async copies (the SASS form of cp.async on sm_80+). The fused copy
// sits at the STS's position so shared-memory store ordering is
// preserved; only the global read moves later, which is safe when no
// intervening instruction writes global memory or crosses a
// synchronization/control boundary.
//
// A pair is eligible when:
//   - the LDG is a plain cached load (no .NC: read-only-cache loads keep
//     their texture-path routing) no wider than the ISA's maximum
//     per-thread async copy;
//   - the loaded vreg has exactly one definition (the LDG) and one use
//     (the STS's stored value, at element 0), so deleting the LDG leaves
//     no other reader;
//   - the two instructions carry the same guard predicate and the store
//     is the full loaded width;
//   - nothing between them is a branch, branch target, barrier, EXIT/RET,
//     MEMBAR, or global-memory write, and nothing redefines the loaded
//     vreg, either address base, or the shared guard predicate.
func fuseAsyncCopies(p *kasm.Program, isa gpu.ISADesc) {
	uses := make([]int, p.NumVRegs)
	defs := make([]int, p.NumVRegs)
	for i := range p.Insts {
		in := &p.Insts[i]
		for _, o := range in.Src {
			if (o.Kind == kasm.VOpdReg || o.Kind == kasm.VOpdMem) && o.V != kasm.NoVReg {
				uses[o.V]++
			}
		}
		for _, o := range in.Dst {
			switch {
			case o.Kind == kasm.VOpdReg && o.V != kasm.NoVReg:
				defs[o.V]++
			case o.Kind == kasm.VOpdMem && o.V != kasm.NoVReg:
				uses[o.V]++ // a store's base address is a read
			}
		}
	}
	isTarget := make([]bool, len(p.Insts)+1)
	for _, idx := range p.Labels {
		isTarget[idx] = true
	}

	// drop marks a fused LDG; fused[j] is 1 + the index of the LDG whose
	// global read the STS at j takes over as an LDGSTS.
	drop := make([]bool, len(p.Insts))
	fused := make([]int, len(p.Insts))
	for i := range p.Insts {
		ldg := &p.Insts[i]
		if ldg.Op != sass.OpLDG || drop[i] {
			continue
		}
		if sass.NC(ldg.Mods) {
			continue
		}
		width := sass.WidthBytes(ldg.Mods)
		if isa.AsyncCopyMaxBytes > 0 && width > isa.AsyncCopyMaxBytes {
			continue
		}
		if len(ldg.Dst) != 1 || ldg.Dst[0].Kind != kasm.VOpdReg {
			continue
		}
		v := ldg.Dst[0].V
		if v == kasm.NoVReg || defs[v] != 1 || uses[v] != 1 {
			continue
		}
		if len(ldg.Src) != 1 || ldg.Src[0].Kind != kasm.VOpdMem {
			continue
		}
		gbase := ldg.Src[0].V

	scan:
		for j := i + 1; j < len(p.Insts); j++ {
			if isTarget[j] || drop[j] {
				break
			}
			in := &p.Insts[j]
			if in.Op == sass.OpSTS && fused[j] == 0 &&
				len(in.Src) == 1 && in.Src[0].Kind == kasm.VOpdReg &&
				in.Src[0].V == v && in.Src[0].Elem == 0 &&
				len(in.Dst) == 1 && in.Dst[0].Kind == kasm.VOpdMem &&
				sass.WidthBytes(in.Mods) == width &&
				in.Pred == ldg.Pred && in.PredNeg == ldg.PredNeg {
				fused[j] = i + 1
				drop[i] = true
				break
			}
			// Moving the global read past control flow, a barrier or a
			// write to global memory is unsafe.
			if c := sass.ClassOf(in.Op); c == sass.ClassControl ||
				c == sass.ClassGlobal && (sass.IsStore(in.Op) || sass.IsAtomic(in.Op)) {
				break scan
			}
			if writesVReg(in, v) || writesVReg(in, gbase) ||
				(ldg.Pred != sass.PT && writesPred(in, ldg.Pred)) {
				break
			}
		}
	}

	if !slices.Contains(drop, true) {
		return
	}
	// A new instruction list: p's operand lists are shared, not changed.
	out := make([]kasm.VInst, 0, len(p.Insts))
	oldToNew := make([]int, len(p.Insts)+1)
	for j := range p.Insts {
		oldToNew[j] = len(out)
		in := &p.Insts[j]
		switch {
		case drop[j]:
		case fused[j] != 0:
			ldg := &p.Insts[fused[j]-1]
			wm, _ := sass.WidthMods(sass.WidthBytes(in.Mods))
			out = append(out, kasm.VInst{
				Op: sass.OpLDGSTS, Mods: append([]string{"E", "BYPASS"}, wm...),
				Pred: ldg.Pred, PredNeg: ldg.PredNeg,
				Dst: in.Dst, Src: ldg.Src, // one operand each
				Line: in.Line,
			})
		default:
			out = append(out, *in)
		}
	}
	oldToNew[len(p.Insts)] = len(out)
	p.Insts, p.Labels = out, remapLabels(p.Labels, oldToNew)
}
