package codegen

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// interval is the live range of a virtual register in linearized
// instruction positions. Backward dataflow already accounts for loop
// back edges, so [Start, End] safely over-approximates all positions
// where the vreg's value matters.
type interval struct {
	v          kasm.VReg
	start, end int
	width      int
	noSpill    bool // spill-reload temporaries must stay in registers
}

// buildIntervals derives live intervals from the round's def/use table
// and per-instruction live-out sets. Vregs from firstTemp on are
// spill-reload temporaries.
func buildIntervals(p *kasm.Program, du *defUse, liveOut [][]uint64, firstTemp int) []interval {
	n := len(p.Insts)
	// first[v] and last[v] are positions plus one; 0 while v is untouched.
	first, last := make([]int, p.NumVRegs), make([]int, p.NumVRegs)
	touched := 0
	touch := func(v kasm.VReg, i int) {
		i++
		if first[v] == 0 {
			first[v], last[v] = i, i
			touched++
			return
		}
		first[v], last[v] = min(first[v], i), max(last[v], i)
	}
	for i := 0; i < n; i++ {
		for _, d := range du.defsOf(i) {
			touch(d, i)
		}
		for _, u := range du.usesOf(i) {
			touch(u, i)
		}
	}
	// A vreg live out of instruction i is touched at i+1. Only the first
	// and the last such i can move its interval: one forward and one
	// backward pass touch each vreg where it first turns up.
	seen := make([]uint64, (p.NumVRegs+63)/64)
	visit := func(i int) {
		for w, set := range liveOut[i] {
			for fresh := set &^ seen[w]; fresh != 0; fresh &= fresh - 1 {
				touch(kasm.VReg(w*64+bits.TrailingZeros64(fresh)), i+1)
			}
			seen[w] |= set
		}
	}
	for i := 0; i < n; i++ {
		visit(i)
	}
	clear(seen)
	for i := n - 1; i >= 0; i-- {
		visit(i)
	}
	ivs := make([]interval, 0, touched)
	for v := 0; v < p.NumVRegs; v++ {
		if first[v] == 0 {
			continue
		}
		ivs = append(ivs, interval{
			v: kasm.VReg(v), start: first[v] - 1, end: last[v] - 1,
			width: p.WidthOf(kasm.VReg(v)), noSpill: v >= firstTemp,
		})
	}
	slices.SortFunc(ivs, func(a, b interval) int {
		return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.v, b.v))
	})
	return ivs
}

// allocResult is the outcome of one linear-scan pass.
type allocResult struct {
	phys    []sass.Reg // indexed by vreg
	maxReg  int        // highest physical register used
	spilled []kasm.VReg
}

// linearScan allocates physical registers for all intervals within the
// budget. When the register file is exhausted it selects spill victims
// (farthest interval end) and reports them; the caller rewrites the
// program with spill code and retries.
func linearScan(ivs []interval, budget, nvregs int) (allocResult, error) {
	type active struct {
		interval
		base sass.Reg
	}
	res := allocResult{phys: make([]sass.Reg, nvregs), maxReg: -1}
	inUse := make([]bool, budget)
	act := make([]active, 0, budget) // each holds at least one register

	findFree := func(width int) (sass.Reg, bool) {
		align := width
		if align == 3 {
			align = 4
		}
		for base := 0; base+width <= budget; base += align {
			ok := true
			for i := 0; i < width; i++ {
				if inUse[base+i] {
					ok = false
					break
				}
			}
			if ok {
				return sass.Reg(base), true
			}
		}
		return 0, false
	}
	assign := func(iv interval, base sass.Reg) {
		for i := 0; i < iv.width; i++ {
			inUse[int(base)+i] = true
		}
		res.phys[iv.v] = base
		if m := int(base) + iv.width - 1; m > res.maxReg {
			res.maxReg = m
		}
		act = append(act, active{iv, base})
	}
	release := func(idx int) {
		a := act[idx]
		for i := 0; i < a.width; i++ {
			inUse[int(a.base)+i] = false
		}
		act = append(act[:idx], act[idx+1:]...)
	}

	for _, iv := range ivs {
		// Expire intervals that ended strictly before this start.
		for i := 0; i < len(act); {
			if act[i].end < iv.start {
				release(i)
			} else {
				i++
			}
		}
		base, ok := findFree(iv.width)
		for !ok {
			// Spill active intervals (farthest end first, same-or-wider
			// width preferred for alignment) until the new interval fits;
			// consider spilling the new interval itself instead.
			victim := -1
			for i := range act {
				if act[i].noSpill {
					continue
				}
				if victim < 0 ||
					(act[i].width >= iv.width) != (act[victim].width >= iv.width) && act[i].width >= iv.width ||
					(act[i].width >= iv.width) == (act[victim].width >= iv.width) && act[i].end > act[victim].end {
					victim = i
				}
			}
			if victim >= 0 && (act[victim].end > iv.end || iv.noSpill) {
				res.spilled = append(res.spilled, act[victim].v)
				release(victim)
				base, ok = findFree(iv.width)
				continue
			}
			if !iv.noSpill {
				res.spilled = append(res.spilled, iv.v)
				break
			}
			return allocResult{}, fmt.Errorf("codegen: cannot allocate spill temporary within budget %d", budget)
		}
		if !ok {
			continue // the new interval was spilled instead
		}
		assign(iv, base)
	}
	return res, nil
}
