package codegen

import (
	"fmt"
	"math/bits"
	"sort"

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

// buildIntervals derives live intervals from the per-instruction live-out
// sets.
func buildIntervals(p *kasm.Program, liveOut [][]uint64, noSpill map[kasm.VReg]bool) []interval {
	n := len(p.Insts)
	start := make([]int, p.NumVRegs)
	end := make([]int, p.NumVRegs)
	seen := make([]bool, p.NumVRegs)
	touch := func(v kasm.VReg, i int) {
		if !seen[v] {
			seen[v] = true
			start[v], end[v] = i, i
			return
		}
		if i < start[v] {
			start[v] = i
		}
		if i > end[v] {
			end[v] = i
		}
	}
	for i := 0; i < n; i++ {
		defs, _, uses := defsUses(p, &p.Insts[i])
		for _, d := range defs {
			touch(d, i)
		}
		for _, u := range uses {
			touch(u, i)
		}
		for w, set := range liveOut[i] {
			for ; set != 0; set &= set - 1 {
				touch(kasm.VReg(w*64+bits.TrailingZeros64(set)), i+1)
			}
		}
	}
	var ivs []interval
	for v := 0; v < p.NumVRegs; v++ {
		if !seen[v] {
			continue
		}
		ivs = append(ivs, interval{
			v: kasm.VReg(v), start: start[v], end: end[v],
			width: p.WidthOf(kasm.VReg(v)), noSpill: noSpill[kasm.VReg(v)],
		})
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].v < ivs[j].v
	})
	return ivs
}

// allocResult is the outcome of one linear-scan pass.
type allocResult struct {
	phys    map[kasm.VReg]sass.Reg
	maxReg  int // highest physical register used
	spilled []kasm.VReg
}

// linearScan allocates physical registers for all intervals within the
// budget. When the register file is exhausted it selects spill victims
// (farthest interval end) and reports them; the caller rewrites the
// program with spill code and retries.
func linearScan(ivs []interval, budget int) (*allocResult, error) {
	type active struct {
		interval
		base sass.Reg
	}
	res := &allocResult{phys: map[kasm.VReg]sass.Reg{}, maxReg: -1}
	inUse := make([]bool, budget)
	var act []active

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
				delete(res.phys, act[victim].v)
				release(victim)
				base, ok = findFree(iv.width)
				continue
			}
			if !iv.noSpill {
				res.spilled = append(res.spilled, iv.v)
				break
			}
			return nil, fmt.Errorf("codegen: cannot allocate spill temporary within budget %d", budget)
		}
		if !ok {
			continue // the new interval was spilled instead
		}
		assign(iv, base)
	}
	return res, nil
}
