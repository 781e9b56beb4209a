package sass

import "math/bits"

// Liveness holds per-instruction register liveness information. The paper
// reports "live register pressure of an instruction" (§3.2) and "the number
// of additional registers needed by each SASS instruction" (§4.1); both are
// computed here from a standard backward dataflow over the CFG.
type Liveness struct {
	cfg *CFG

	// liveOut[i] is the set of registers live immediately after
	// instruction i, as a bitset over R0..R254.
	liveOut []regSet
	// pressure[i] = |live-out(i)|: the live register pressure at i.
	pressure []int
	// extra[i] = max(0, |live-out(i)| - |live-in(i)|): registers newly
	// made live by instruction i.
	extra []int
}

const regSetWords = (NumArchRegs + 63) / 64

type regSet [regSetWords]uint64

func (s *regSet) add(r Reg) {
	if r == RZ {
		return
	}
	s[r/64] |= 1 << (r % 64)
}

func (s *regSet) remove(r Reg) {
	if r == RZ {
		return
	}
	s[r/64] &^= 1 << (r % 64)
}

func (s *regSet) has(r Reg) bool {
	if r == RZ {
		return false
	}
	return s[r/64]&(1<<(r%64)) != 0
}

func (s *regSet) union(o regSet) (changed bool) {
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			s[i] = n
			changed = true
		}
	}
	return changed
}

func (s *regSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ComputeLiveness runs backward liveness over the kernel's CFG.
func ComputeLiveness(cfg *CFG) *Liveness {
	k := cfg.Kernel
	n := len(k.Insts)
	lv := &Liveness{
		cfg:      cfg,
		liveOut:  make([]regSet, n),
		pressure: make([]int, n),
		extra:    make([]int, n),
	}

	// Per-block live-in sets, iterated to fixpoint.
	nb := len(cfg.Blocks)
	blockLiveIn := make([]regSet, nb)
	var scratch []Reg

	transfer := func(b *Block, liveOutEnd regSet, record bool) regSet {
		live := liveOutEnd
		for i := b.End - 1; i >= b.Start; i-- {
			in := &k.Insts[i]
			if record {
				lv.liveOut[i] = live
				lv.pressure[i] = live.count()
			}
			before := live
			for _, r := range in.DstRegs(scratch[:0]) {
				live.remove(r)
			}
			for _, r := range in.SrcRegs(scratch[:0]) {
				live.add(r)
			}
			if record {
				outN := before.count()
				inN := live.count()
				if d := outN - inN; d > 0 {
					lv.extra[i] = d
				}
			}
		}
		return live
	}

	changed := true
	for changed {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			b := &cfg.Blocks[bi]
			var out regSet
			for _, s := range b.Succs {
				out.union(blockLiveIn[s])
			}
			in := transfer(b, out, false)
			if blockLiveIn[bi].union(in) {
				changed = true
			}
		}
	}
	for bi := range cfg.Blocks {
		b := &cfg.Blocks[bi]
		var out regSet
		for _, s := range b.Succs {
			out.union(blockLiveIn[s])
		}
		transfer(b, out, true)
	}
	return lv
}

// PressureAt returns the live register pressure immediately after
// instruction index i.
func (lv *Liveness) PressureAt(i int) int { return lv.pressure[i] }

// ExtraRegs returns how many additional registers instruction i makes
// live (the §4.1 per-instruction register-pressure contribution).
func (lv *Liveness) ExtraRegs(i int) int { return lv.extra[i] }

// MaxPressure returns the maximum live register pressure in the kernel
// and the instruction index where it occurs.
func (lv *Liveness) MaxPressure() (max, at int) {
	for i, p := range lv.pressure {
		if p > max {
			max, at = p, i
		}
	}
	return max, at
}

// LiveAt reports whether register r is live immediately after
// instruction index i.
func (lv *Liveness) LiveAt(r Reg, i int) bool { return lv.liveOut[i].has(r) }
