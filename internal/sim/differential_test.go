package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// TestDifferentialRandomALU generates random straight-line ALU kernels,
// compiles them through the full kasm -> codegen pipeline (including
// tight register budgets that force spilling), executes them on the
// simulator, and compares every thread's results against a host-side
// evaluation of the same operation sequence. This is the end-to-end
// correctness property for the compiler + simulator pair. FP sources are
// negated at random, an integer add subtracts, compares feed a select and
// guard an add, and the block's last warp is partial, so operand sign
// flips, two's-complement negation, predicate masks and inactive lanes
// are compared too.
func TestDifferentialRandomALU(t *testing.T) {
	f := func(seed int64, budget8 uint8) bool {
		r := rand.New(rand.NewSource(seed))
		budget := 10 + int(budget8%40) // 10..49 registers

		const numVals = 10
		const numOps = 24
		threads := 33 + r.Intn(31) // two warps, the second partial

		b := kasm.NewBuilder("_Zdiff", "sm_70", "diff.cu")
		b.NumParams(2)
		b.Line(1)
		tid := b.TidX()
		in := b.ParamPtr(0)
		out := b.ParamPtr(1)

		// Host model: per-thread value state, updated in lockstep with
		// the emitted instructions.
		host := make([][]uint32, threads)
		for th := range host {
			host[th] = make([]uint32, numVals)
		}

		// Initial values come from global memory: in[tid*numVals + j].
		inData := make([]uint32, threads*numVals)
		for i := range inData {
			// Small floats/ints keep both interpretations tame.
			inData[i] = math.Float32bits(float32(r.Intn(64)) * 0.25)
		}
		base := b.IMul(kasm.VR(tid), kasm.VImm(numVals*4))
		addr := b.IMadWide(kasm.VR(base), kasm.VImm(1), in)
		vals := make([]kasm.VReg, numVals)
		for j := 0; j < numVals; j++ {
			vals[j] = b.Ldg(addr, int64(4*j), 4, false)
			for th := 0; th < threads; th++ {
				host[th][j] = inData[th*numVals+j]
			}
		}

		// Random op sequence.
		for op := 0; op < numOps; op++ {
			d := r.Intn(numVals)
			a := r.Intn(numVals)
			c := r.Intn(numVals)
			av, cv := kasm.VR(vals[a]), kasm.VR(vals[c])
			switch r.Intn(11) {
			case 0: // integer add
				b.IAddTo(kasm.VR(vals[d]), av, cv)
				apply(host, func(x []uint32) uint32 { return uint32(int32(x[a]) + int32(x[c])) }, d)
			case 1: // integer mad
				b.IMadTo(kasm.VR(vals[d]), av, cv, kasm.VImm(3))
				apply(host, func(x []uint32) uint32 { return uint32(int32(x[a])*int32(x[c]) + 3) }, d)
			case 2: // float add
				fa, fc := fpSource(r, &av), fpSource(r, &cv)
				b.FAddTo(kasm.VR(vals[d]), av, cv)
				apply(host, func(x []uint32) uint32 { return hostFP32(fa(x[a]) + fc(x[c])) }, d)
			case 3: // float fma
				fa, fc := fpSource(r, &av), fpSource(r, &cv)
				b.FFmaTo(kasm.VR(vals[d]), av, cv, kasm.VR(vals[d]))
				apply(host, func(x []uint32) uint32 {
					return hostFP32(fa(x[a])*fc(x[c]) + math.Float32frombits(x[d]))
				}, d)
			case 4: // shift left by 1..3
				n := int64(r.Intn(3) + 1)
				sh := b.Shl(av, n)
				vals[d] = sh
				apply(host, func(x []uint32) uint32 { return x[a] << uint(n) }, d)
			case 5: // integer min
				m := b.IMin(av, cv)
				vals[d] = m
				apply(host, func(x []uint32) uint32 {
					if int32(x[a]) < int32(x[c]) {
						return x[a]
					}
					return x[c]
				}, d)
			case 6: // int -> float
				cvt := b.I2F(av)
				vals[d] = cvt
				apply(host, func(x []uint32) uint32 { return math.Float32bits(float32(int32(x[a]))) }, d)
			case 7: // float -> int
				cvt := b.F2I(av)
				vals[d] = cvt
				apply(host, func(x []uint32) uint32 { return hostF2I(math.Float32frombits(x[a])) }, d)
			case 8: // integer subtract: a negated integer source
				nc := cv
				nc.Neg = true
				b.IAddTo(kasm.VR(vals[d]), av, nc)
				apply(host, func(x []uint32) uint32 { return x[a] - x[c] }, d)
			case 9: // compare and select
				cmp, neg := randCompare(r)
				p := b.Raw2P(cmp.op, cmp.mods, av, cv)
				vals[d] = b.Raw(sass.OpSEL, nil, av, cv, kasm.VPred(p, neg))
				b.FreePred(p)
				apply(host, func(x []uint32) uint32 {
					if cmp.host(x[a], x[c]) != neg {
						return x[a]
					}
					return x[c]
				}, d)
			case 10: // an add guarded by a compare
				cmp, neg := randCompare(r)
				p := b.Raw2P(cmp.op, cmp.mods, av, cv)
				b.WithPred(p, neg, func() { b.IAddTo(kasm.VR(vals[d]), kasm.VR(vals[d]), cv) })
				b.FreePred(p)
				apply(host, func(x []uint32) uint32 {
					if cmp.host(x[a], x[c]) != neg {
						return x[d] + x[c]
					}
					return x[d]
				}, d)
			}
		}

		// Store all values back.
		oaddr := b.IMadWide(kasm.VR(base), kasm.VImm(1), out)
		for j := 0; j < numVals; j++ {
			b.Stg(oaddr, int64(4*j), vals[j], 4)
		}
		b.Exit()

		p, err := b.Build()
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		k, err := codegen.Compile(p, codegen.Options{MaxRegs: budget})
		if err != nil {
			t.Logf("compile (budget %d): %v", budget, err)
			return false
		}
		if k.NumRegs > budget {
			t.Logf("budget exceeded: %d > %d", k.NumRegs, budget)
			return false
		}

		dev := NewDevice(gpu.V100())
		inBuf := dev.MustAlloc(4 * threads * numVals)
		outBuf := dev.MustAlloc(4 * threads * numVals)
		raw := make([]byte, 4*threads*numVals)
		for i, v := range inData {
			raw[4*i] = byte(v)
			raw[4*i+1] = byte(v >> 8)
			raw[4*i+2] = byte(v >> 16)
			raw[4*i+3] = byte(v >> 24)
		}
		if err := dev.CopyToDevice(inBuf, raw); err != nil {
			t.Logf("copy: %v", err)
			return false
		}
		if _, err := Launch(dev, LaunchSpec{
			Kernel: k, Grid: D1(1), Block: D1(threads),
			Params: []uint64{inBuf.Addr, outBuf.Addr},
		}, Config{}); err != nil {
			t.Logf("launch: %v", err)
			return false
		}
		got := make([]byte, 4*threads*numVals)
		if err := dev.CopyFromDevice(got, outBuf); err != nil {
			t.Logf("copy back: %v", err)
			return false
		}
		for th := 0; th < threads; th++ {
			for j := 0; j < numVals; j++ {
				i := th*numVals + j
				g := uint32(got[4*i]) | uint32(got[4*i+1])<<8 | uint32(got[4*i+2])<<16 | uint32(got[4*i+3])<<24
				if g != host[th][j] {
					t.Logf("seed %d budget %d: thread %d val %d = %#x, host %#x",
						seed, budget, th, j, g, host[th][j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// compareCase is an ISETP or FSETP comparison and the host model of it.
type compareCase struct {
	op   sass.Opcode
	mods []string
	host func(a, c uint32) bool
}

// randCompare draws a comparison — signed, unsigned or FP32, any of the
// six relations — and whether its predicate is read negated.
func randCompare(r *rand.Rand) (compareCase, bool) {
	rels := []struct {
		name string
		f    func(lt, eq bool) bool
	}{
		{"LT", func(lt, _ bool) bool { return lt }}, {"LE", func(lt, eq bool) bool { return lt || eq }},
		{"GT", func(lt, eq bool) bool { return !lt && !eq }}, {"GE", func(lt, _ bool) bool { return !lt }},
		{"EQ", func(_, eq bool) bool { return eq }}, {"NE", func(_, eq bool) bool { return !eq }},
	}
	rel := rels[r.Intn(len(rels))]
	c := compareCase{op: sass.OpISETP, mods: []string{rel.name, "AND"}}
	switch r.Intn(3) {
	case 0:
		c.host = func(a, b uint32) bool { return rel.f(int32(a) < int32(b), a == b) }
	case 1:
		c.mods = []string{rel.name, "U32", "AND"}
		c.host = func(a, b uint32) bool { return rel.f(a < b, a == b) }
	default:
		c.op = sass.OpFSETP
		c.host = func(a, b uint32) bool {
			x, y := math.Float32frombits(a), math.Float32frombits(b)
			if x != x || y != y { // unordered: only NE holds
				return rel.name == "NE"
			}
			return rel.f(x < y, x == y)
		}
	}
	return c, r.Intn(2) == 0
}

// fpSource negates FP source o at random and returns how the host model
// reads it. Only the FP cases call it: a negated source flips the sign
// bit, which is FP negation and not integer negation.
func fpSource(r *rand.Rand, o *kasm.VOperand) func(uint32) float32 {
	if o.Neg = r.Intn(2) == 0; o.Neg {
		return func(x uint32) float32 { return -math.Float32frombits(x) }
	}
	return math.Float32frombits
}

// hostFP32 is the host model's FP32 arithmetic result: the hardware
// writes every NaN as 0x7fffffff, whatever the operands' payloads.
func hostFP32(f float32) uint32 {
	if math.IsNaN(float64(f)) {
		return 0x7fffffff
	}
	return math.Float32bits(f)
}

// hostF2I is the host model's F2I.S32: truncation toward zero, clamped to
// the int32 range, with NaN converting to 0.
func hostF2I(f float32) uint32 {
	x := float64(f)
	switch {
	case math.IsNaN(x):
		return 0
	case x > math.MaxInt32:
		return math.MaxInt32
	case x < math.MinInt32:
		return 1 << 31
	}
	return uint32(int32(x))
}

// apply updates every thread's host state for destination slot d.
func apply(host [][]uint32, f func(x []uint32) uint32, d int) {
	for th := range host {
		host[th][d] = f(host[th])
	}
}
