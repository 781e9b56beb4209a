package sim

import (
	"math"
	"testing"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// runScalarKernel builds a 32-thread kernel with body emitting a single
// result vreg, runs it, and returns each lane's output word.
func runScalarKernel(t *testing.T, body func(b *kasm.Builder, tid kasm.VReg) kasm.VReg) []uint32 {
	t.Helper()
	b := kasm.NewBuilder("_Zop", "sm_70", "op.cu")
	b.NumParams(1)
	b.Line(1)
	tid := b.TidX()
	out := b.ParamPtr(0)
	res := body(b, tid)
	off := b.Shl(kasm.VR(tid), 2)
	addr := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	b.Stg(addr, 0, res, 4)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k, err := codegen.Compile(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev := NewDevice(gpu.V100())
	buf := dev.MustAlloc(4 * 32)
	if _, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(32), Params: []uint64{buf.Addr},
	}, Config{}); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 4*32)
	if err := dev.CopyFromDevice(raw, buf); err != nil {
		t.Fatal(err)
	}
	out32 := make([]uint32, 32)
	for i := range out32 {
		out32[i] = uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
	}
	return out32
}

func TestOpMufu(t *testing.T) {
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		f := b.I2F(kasm.VR(tid))
		one := b.FAdd(kasm.VR(f), kasm.VImm(int64(math.Float32bits(1))))
		return b.MufuRcp(kasm.VR(one)) // 1/(tid+1)
	})
	for lane, g := range got {
		want := float32(1) / float32(lane+1)
		if math.Float32frombits(g) != want {
			t.Fatalf("rcp lane %d = %v, want %v", lane, math.Float32frombits(g), want)
		}
	}
}

// TestOpIntegerNegation: an integer opcode negates a source in two's
// complement (IADD3 R, R, -R, RZ subtracts), where a floating-point one
// flips its sign bit.
func TestOpIntegerNegation(t *testing.T) {
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		x, y := b.MovImm(5), b.IAdd(kasm.VR(tid), kasm.VImm(3))
		neg := kasm.VR(y)
		neg.Neg = true
		b.IAddTo(kasm.VR(x), kasm.VR(x), neg)
		return x
	})
	for lane, g := range got {
		if want := uint32(2 - lane); g != want {
			t.Fatalf("lane %d: 5 + -(%d+3) = %#x, want %#x", lane, lane, g, want)
		}
	}
}

func TestOpMinMaxSelAbsPopc(t *testing.T) {
	// max(tid, 16)
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		return b.IMax(kasm.VR(tid), kasm.VImm(16))
	})
	for lane, g := range got {
		want := uint32(16)
		if lane > 16 {
			want = uint32(lane)
		}
		if g != want {
			t.Fatalf("max lane %d = %d, want %d", lane, g, want)
		}
	}
	// |tid - 16|
	got = runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		d := b.IAdd(kasm.VR(tid), kasm.VImm(-16))
		dst := b.MovImm(0)
		b.MovTo(kasm.VR(dst), kasm.VR(d))
		abs := b.MovImm(0)
		_ = abs
		// IABS via raw emit through the builder's generic path.
		return emitUnary(b, sass.OpIABS, nil, kasm.VR(d))
	})
	for lane, g := range got {
		want := uint32(lane - 16)
		if lane < 16 {
			want = uint32(16 - lane)
		}
		if g != want {
			t.Fatalf("abs lane %d = %d, want %d", lane, g, want)
		}
	}
	// popc(tid)
	got = runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		return emitUnary(b, sass.OpPOPC, nil, kasm.VR(tid))
	})
	for lane, g := range got {
		want := uint32(0)
		for x := lane; x != 0; x &= x - 1 {
			want++
		}
		if g != want {
			t.Fatalf("popc lane %d = %d, want %d", lane, g, want)
		}
	}
}

// emitUnary emits op dst, a through the builder's internals-free surface.
func emitUnary(b *kasm.Builder, op sass.Opcode, mods []string, a kasm.VOperand) kasm.VReg {
	// The builder has no public emitter for every opcode; reuse IMad-like
	// shape via a tiny shim: Mov into a fresh reg then rewrite is not
	// possible, so use the dedicated builder entry points where they
	// exist and the generic Raw emitter below otherwise.
	return b.Raw(op, mods, a)
}

func TestOpShflVariants(t *testing.T) {
	// shfl.down by 1: lane i gets value of lane i+1 (lane 31 keeps own).
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		return b.ShflDown(kasm.VR(tid), 1)
	})
	for lane, g := range got {
		want := uint32(lane + 1)
		if lane == 31 {
			want = 31
		}
		if g != want {
			t.Fatalf("shfl.down lane %d = %d, want %d", lane, g, want)
		}
	}
	// shfl.bfly by 16: halves swap.
	got = runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		return b.ShflBfly(kasm.VR(tid), 16)
	})
	for lane, g := range got {
		if g != uint32(lane^16) {
			t.Fatalf("shfl.bfly lane %d = %d, want %d", lane, g, lane^16)
		}
	}
	// shfl.idx to lane 7: broadcast.
	got = runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		return b.ShflIdx(kasm.VR(tid), kasm.VImm(7))
	})
	for lane, g := range got {
		if g != 7 {
			t.Fatalf("shfl.idx lane %d = %d, want 7", lane, g)
		}
	}
}

func TestOpF64Conversions(t *testing.T) {
	// double(tid) * 0.5 narrowed back to float.
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		f := b.I2F(kasm.VR(tid))
		d := b.F2FWiden(kasm.VR(f))
		half := b.MovImmF64(0.5)
		prod := b.DMul(kasm.VR(d), kasm.VR(half))
		return b.F2FNarrow(kasm.VR(prod))
	})
	for lane, g := range got {
		want := float32(float64(lane) * 0.5)
		if math.Float32frombits(g) != want {
			t.Fatalf("f64 chain lane %d = %v, want %v", lane, math.Float32frombits(g), want)
		}
	}
}

func TestOpLogicAndShifts(t *testing.T) {
	// ((tid | 0x30) ^ 0x5) >> 1
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		or := b.Raw(sass.OpLOP3, []string{"OR"}, kasm.VR(tid), kasm.VImm(0x30))
		xor := b.Raw(sass.OpLOP3, []string{"XOR"}, kasm.VR(or), kasm.VImm(0x5))
		return b.Shr(kasm.VR(xor), 1)
	})
	for lane, g := range got {
		want := uint32((lane|0x30)^0x5) >> 1
		if g != want {
			t.Fatalf("logic lane %d = %#x, want %#x", lane, g, want)
		}
	}
}

func TestOpFMnmxAndFSetp(t *testing.T) {
	// min(float(tid), 10.0) selected via FSETP+SEL equivalence check:
	// use FMNMX directly.
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		f := b.I2F(kasm.VR(tid))
		return b.Raw(sass.OpFMNMX, []string{"MIN"}, kasm.VR(f), kasm.VImm(int64(math.Float32bits(10))))
	})
	for lane, g := range got {
		want := float32(lane)
		if want > 10 {
			want = 10
		}
		if math.Float32frombits(g) != want {
			t.Fatalf("fmnmx lane %d = %v, want %v", lane, math.Float32frombits(g), want)
		}
	}
}

func TestOpUnsignedCompare(t *testing.T) {
	// (uint32)(tid-8) < 4 ? 1 : 0 — exercises ISETP.U32 wraparound.
	got := runScalarKernel(t, func(b *kasm.Builder, tid kasm.VReg) kasm.VReg {
		d := b.IAdd(kasm.VR(tid), kasm.VImm(-8))
		res := b.MovImm(0)
		p := b.Raw2P(sass.OpISETP, []string{"LT", "U32", "AND"}, kasm.VR(d), kasm.VImm(4))
		b.WithPred(p, false, func() { b.MovTo(kasm.VR(res), kasm.VImm(1)) })
		b.FreePred(p)
		return res
	})
	for lane, g := range got {
		want := uint32(0)
		if uint32(lane-8) < 4 {
			want = 1
		}
		if g != want {
			t.Fatalf("ucmp lane %d = %d, want %d", lane, g, want)
		}
	}
}
