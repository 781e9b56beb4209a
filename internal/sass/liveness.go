package sass

import "math/bits"

// Liveness holds per-instruction register liveness information. The paper
// reports "live register pressure of an instruction" (§3.2) and "the number
// of additional registers needed by each SASS instruction" (§4.1); both are
// computed here from a standard backward dataflow over the CFG.
type Liveness struct {
	// pressure[i] = |live-out(i)|: the live register pressure at i.
	pressure []int
	// extra[i] = max(0, |live-out(i)| - |live-in(i)|): registers newly
	// made live by instruction i.
	extra []int
}

// LiveOut is the one backward-liveness solver: the least fixpoint over n
// nodes whose facts are sets of width bits, returned as each node's
// live-out bitset. succs appends node i's successors to buf; transfer
// turns node i's live-out set into its live-in set in place. Nodes are
// visited last to first, so straight-line code is final after one pass
// (a second finds no change) and each back edge may cost another.
func LiveOut(n, width int, succs func(i int, buf []int) []int, transfer func(i int, live []uint64)) [][]uint64 {
	words := (width + 63) / 64
	slab := make([]uint64, 2*n*words)
	out := make([][]uint64, n)
	for i := range out {
		out[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	in := func(i int) []uint64 { return slab[(n+i)*words : (n+i+1)*words] }
	live := make([]uint64, words)
	var buf []int
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			buf = succs(i, buf[:0])
			for _, s := range buf {
				for w, x := range in(s) {
					out[i][w] |= x
				}
			}
			copy(live, out[i])
			transfer(i, live)
			for w, x := range live {
				if x&^in(i)[w] != 0 {
					in(i)[w] |= x
					changed = true
				}
			}
		}
	}
	return out
}

// regTransfer is the transfer over architectural registers: an
// instruction kills what it writes, then makes live what it reads. RZ is
// never live.
func regTransfer(k *Kernel) func(i int, live []uint64) {
	var scratch []Reg
	return func(i int, live []uint64) {
		in := &k.Insts[i]
		scratch = in.DstRegs(scratch[:0])
		for _, r := range scratch {
			live[r/64] &^= 1 << (r % 64)
		}
		scratch = in.SrcRegs(scratch[:0])
		for _, r := range scratch {
			if r != RZ {
				live[r/64] |= 1 << (r % 64)
			}
		}
	}
}

// ComputeLiveness runs backward liveness over the kernel's CFG.
func ComputeLiveness(cfg *CFG) *Liveness {
	n := len(cfg.Kernel.Insts)
	lv := &Liveness{pressure: make([]int, n), extra: make([]int, n)}
	transfer := regTransfer(cfg.Kernel)
	out := LiveOut(n, NumArchRegs, cfg.succs, transfer)
	live := make([]uint64, len(out[0]))
	for i, o := range out {
		copy(live, o)
		transfer(i, live)
		lv.pressure[i] = count(o)
		lv.extra[i] = max(0, lv.pressure[i]-count(live))
	}
	return lv
}

func count(s []uint64) int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
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
