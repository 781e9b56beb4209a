package sass

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// testKernel builds a small, valid kernel resembling nvcc output for
//
//	out[i] = a[i] * b[i] + acc   (guarded by i < n)
func testKernel() *Kernel {
	k := &Kernel{
		Name:       "_Z6axpbyiPfS_S_",
		Arch:       "sm_70",
		NumRegs:    16,
		ConstBytes: 0x190,
		SourceFile: "axpby.cu",
	}
	ctrl := DefaultCtrl()
	ld := ctrl
	ld.WrBar = 0
	wait := ctrl
	wait.WaitMask = 0x1
	k.Insts = []Inst{
		{Op: OpS2R, Dst: []Operand{R(0)}, Src: []Operand{SR(SRTidX)}, Ctrl: ctrl, Line: 3},
		{Op: OpS2R, Dst: []Operand{R(1)}, Src: []Operand{SR(SRCtaidX)}, Ctrl: ctrl, Line: 3},
		{Op: OpIMAD, Dst: []Operand{R(0)}, Src: []Operand{R(1), Const(0, 0x0), R(0)}, Ctrl: ctrl, Line: 3},
		{Op: OpISETP, Mods: []string{"GE", "AND"}, Dst: []Operand{P(0), P(PT)},
			Src: []Operand{R(0), Const(0, 0x160), P(PT)}, Ctrl: ctrl, Line: 4},
		{Op: OpBRA, Pred: 0, Target: 9 * InstBytes, Ctrl: ctrl, Line: 4},
		{Op: OpIMAD, Mods: []string{"WIDE"}, Dst: []Operand{R(2)},
			Src: []Operand{R(0), Imm(4), R(4)}, Ctrl: ctrl, Line: 5},
		{Op: OpLDG, Mods: []string{"E", "SYS"}, Dst: []Operand{R(6)},
			Src: []Operand{Mem(2, 0)}, Ctrl: ld, Line: 5},
		{Op: OpFFMA, Dst: []Operand{R(7)}, Src: []Operand{R(6), R(6), R(8)}, Ctrl: wait, Line: 6},
		{Op: OpSTG, Mods: []string{"E", "SYS"}, Dst: []Operand{Mem(2, 0)},
			Src: []Operand{R(7)}, Ctrl: ctrl, Line: 6},
		{Op: OpEXIT, Ctrl: ctrl, Line: 7},
	}
	for i := range k.Insts {
		if k.Insts[i].Pred == 0 && k.Insts[i].Op != OpBRA {
			k.Insts[i].Pred = PT
		}
	}
	k.RenumberPCs()
	return k
}

func TestValidate(t *testing.T) {
	k := testKernel()
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	k := testKernel()
	text := Print(k)
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\ntext:\n%s", err, text)
	}
	if got.Name != k.Name || got.Arch != k.Arch || got.NumRegs != k.NumRegs ||
		got.ConstBytes != k.ConstBytes || got.SourceFile != k.SourceFile {
		t.Errorf("header mismatch: got %+v", got)
	}
	if len(got.Insts) != len(k.Insts) {
		t.Fatalf("instruction count: got %d want %d", len(got.Insts), len(k.Insts))
	}
	for i := range k.Insts {
		a, b := k.Insts[i], got.Insts[i]
		// Normalize nil vs empty slices for comparison.
		if len(a.Mods) == 0 {
			a.Mods = nil
		}
		if len(b.Mods) == 0 {
			b.Mods = nil
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("inst %d:\n got %#v\nwant %#v", i, b, a)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"no header", "/*0000*/ EXIT ;"},
		{"bad opcode", "\t.kernel k sm_70\n/*0000*/ FROB R0 ;"},
		{"bad register", "\t.kernel k sm_70\n/*0000*/ MOV R999, RZ ;"},
		{"missing semicolon", "\t.kernel k sm_70\n/*0000*/ MOV R0, RZ"},
		{"bad control", "\t.kernel k sm_70\n/*0000*/ MOV R0, RZ ; & zz=1"},
		{"bad stall", "\t.kernel k sm_70\n/*0000*/ MOV R0, RZ ; & st=99"},
		{"bad wait mask", "\t.kernel k sm_70\n/*0000*/ MOV R0, RZ ; & wt=0xfff"},
		{"bad header field", "\t.kernel k sm_70 bogus=1\n"},
		{"garbage line", "\t.kernel k sm_70\nwhat is this"},
		{"bra without target", "\t.kernel k sm_70\n/*0000*/ BRA ;"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.text); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.text)
			}
		})
	}
}

func TestLineAttribution(t *testing.T) {
	k := testKernel()
	text := Print(k)
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if in := got.InstAt(6 * InstBytes); in == nil || in.Line != 5 {
		t.Errorf("InstAt(0x60) = %+v, want line 5", in)
	}
	pcs := got.PCsForLine(6)
	if len(pcs) != 2 {
		t.Errorf("PCsForLine(6) = %v, want 2 PCs", pcs)
	}
	lines := got.Lines()
	want := []int{3, 4, 5, 6, 7}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("Lines() = %v, want %v", lines, want)
	}
}

// randomInst generates a structurally valid instruction for property
// testing the Print/Parse round-trip.
func randomInst(r *rand.Rand, pc uint64) Inst {
	ops := []Opcode{OpLDG, OpSTG, OpLDS, OpSTS, OpLDL, OpSTL, OpFADD, OpFFMA,
		OpIMAD, OpIADD3, OpMOV, OpI2F, OpF2F, OpS2R, OpISETP, OpATOM, OpTEX, OpEXIT}
	op := ops[r.Intn(len(ops))]
	in := Inst{PC: pc, Pred: PT, Op: op, Ctrl: DefaultCtrl(), Line: 1 + r.Intn(40)}
	if r.Intn(4) == 0 {
		in.Pred = Pred(r.Intn(NumPreds))
		in.PredNeg = r.Intn(2) == 0
	}
	in.Ctrl.Stall = uint8(r.Intn(16))
	in.Ctrl.Yield = r.Intn(2) == 0
	if r.Intn(2) == 0 {
		in.Ctrl.WrBar = int8(r.Intn(6))
	}
	if r.Intn(2) == 0 {
		in.Ctrl.RdBar = int8(r.Intn(6))
	}
	in.Ctrl.WaitMask = uint8(r.Intn(64))
	reg := func() Reg { return Reg(r.Intn(32) * 2) }
	switch op {
	case OpLDG:
		in.Mods = []string{"E", "SYS"}
		if r.Intn(2) == 0 {
			in.Mods = []string{"E", "128", "SYS"}
		}
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{Mem(reg(), int64(r.Intn(64)*4-128))}
	case OpSTG:
		in.Mods = []string{"E", "SYS"}
		in.Dst = []Operand{Mem(reg(), int64(r.Intn(16)*4))}
		in.Src = []Operand{R(reg())}
	case OpLDS, OpLDL:
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{Mem(RZ, int64(r.Intn(64)*4))}
	case OpSTS, OpSTL:
		in.Dst = []Operand{Mem(RZ, int64(r.Intn(64)*4))}
		in.Src = []Operand{R(reg())}
	case OpFADD, OpIADD3:
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{R(reg()), R(reg()), R(reg())}
	case OpFFMA, OpIMAD:
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{R(reg()), R(reg()), R(reg())}
	case OpMOV:
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{Imm(int64(r.Int31()))}
	case OpI2F, OpF2F:
		in.Mods = []string{"F32", "S32"}
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{R(reg())}
	case OpS2R:
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{SR(SRTidX)}
	case OpISETP:
		in.Mods = []string{"LT", "AND"}
		in.Dst = []Operand{P(Pred(r.Intn(NumPreds))), P(PT)}
		in.Src = []Operand{R(reg()), Const(0, int64(r.Intn(16)*4+0x160)), P(PT)}
	case OpATOM:
		in.Mods = []string{"E", "ADD"}
		in.Dst = []Operand{R(reg()), Mem(reg(), 0)}
		in.Src = []Operand{R(reg())}
	case OpTEX:
		in.Mods = []string{"2D"}
		in.Dst = []Operand{R(reg())}
		in.Src = []Operand{R(reg()), R(reg()), Imm(int64(r.Intn(4)))}
	case OpEXIT:
	}
	return in
}

func TestQuickPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%24) + 1
		k := &Kernel{Name: "_Zquick", Arch: "sm_70", NumRegs: 64, SourceFile: "q.cu"}
		for i := 0; i < count; i++ {
			k.Insts = append(k.Insts, randomInst(r, uint64(i)*InstBytes))
		}
		k.Insts = append(k.Insts, Inst{PC: uint64(count) * InstBytes, Pred: PT, Op: OpEXIT, Ctrl: DefaultCtrl()})
		text := Print(k)
		got, err := Parse(text)
		if err != nil {
			t.Logf("parse failed: %v\n%s", err, text)
			return false
		}
		if len(got.Insts) != len(k.Insts) {
			return false
		}
		for i := range k.Insts {
			a, b := k.Insts[i], got.Insts[i]
			if a.Mnemonic() != b.Mnemonic() || a.PC != b.PC || a.Line != b.Line ||
				a.Pred != b.Pred || a.PredNeg != b.PredNeg ||
				!reflect.DeepEqual(a.Ctrl, b.Ctrl) ||
				!reflect.DeepEqual(a.Dst, b.Dst) || !operandsEqual(a.Src, b.Src) {
				t.Logf("inst %d mismatch:\n got %#v\nwant %#v", i, b, a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func operandsEqual(a, b []Operand) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMnemonicAndWidth(t *testing.T) {
	in := Inst{Op: OpLDG, Mods: []string{"E", "128", "SYS"}}
	if got := in.Mnemonic(); got != "LDG.E.128.SYS" {
		t.Errorf("Mnemonic = %q", got)
	}
	if in.WidthBytes() != 16 {
		t.Errorf("WidthBytes = %d, want 16", in.WidthBytes())
	}
	if !in.IsVectorized() {
		t.Error("IsVectorized = false, want true")
	}
	in64 := Inst{Op: OpLDG, Mods: []string{"E", "64", "SYS"}}
	if in64.WidthBytes() != 8 {
		t.Errorf("WidthBytes(.64) = %d, want 8", in64.WidthBytes())
	}
	plain := Inst{Op: OpLDG, Mods: []string{"E", "SYS"}}
	if plain.WidthBytes() != 4 || plain.IsVectorized() {
		t.Error("plain LDG.E should be 4 bytes, non-vectorized")
	}
	nc := Inst{Op: OpLDG, Mods: []string{"E", "NC", "SYS"}}
	if !nc.IsNC() {
		t.Error("LDG.E.NC should report IsNC")
	}
}

func TestDstSrcRegs(t *testing.T) {
	// LDG.E.128 writes a quad.
	in := Inst{Op: OpLDG, Mods: []string{"E", "128", "SYS"},
		Dst: []Operand{R(4)}, Src: []Operand{Mem(2, 0)}}
	dst := in.DstRegs(nil)
	if len(dst) != 4 || dst[0] != 4 || dst[3] != 7 {
		t.Errorf("LDG.E.128 DstRegs = %v", dst)
	}
	src := in.SrcRegs(nil)
	if len(src) != 2 || src[0] != 2 || src[1] != 3 {
		t.Errorf("LDG.E.128 SrcRegs = %v (want address pair R2,R3)", src)
	}

	// STG reads the address pair and the stored value.
	st := Inst{Op: OpSTG, Mods: []string{"E", "SYS"},
		Dst: []Operand{Mem(8, 0)}, Src: []Operand{R(5)}}
	src = st.SrcRegs(nil)
	if len(src) != 3 {
		t.Errorf("STG SrcRegs = %v, want value + address pair", src)
	}

	// IMAD.WIDE writes a pair and reads a pair accumulator.
	w := Inst{Op: OpIMAD, Mods: []string{"WIDE"},
		Dst: []Operand{R(2)}, Src: []Operand{R(0), Imm(4), R(10)}}
	dst = w.DstRegs(nil)
	if len(dst) != 2 || dst[1] != 3 {
		t.Errorf("IMAD.WIDE DstRegs = %v", dst)
	}
	src = w.SrcRegs(nil)
	if len(src) != 3 || src[0] != 0 || src[1] != 10 || src[2] != 11 {
		t.Errorf("IMAD.WIDE SrcRegs = %v, want [R0 R10 R11]", src)
	}

	// DFMA reads/writes pairs.
	d := Inst{Op: OpDFMA, Dst: []Operand{R(4)}, Src: []Operand{R(6), R(8), R(4)}}
	if got := len(d.DstRegs(nil)); got != 2 {
		t.Errorf("DFMA DstRegs count = %d", got)
	}
	if got := len(d.SrcRegs(nil)); got != 6 {
		t.Errorf("DFMA SrcRegs count = %d", got)
	}

	// F2F.F64.F32 widens (pair dst, single src);
	// F2F.F32.F64 narrows (single dst, pair src).
	widen := Inst{Op: OpF2F, Mods: []string{"F64", "F32"}, Dst: []Operand{R(2)}, Src: []Operand{R(0)}}
	if got := len(widen.DstRegs(nil)); got != 2 {
		t.Errorf("F2F.F64.F32 DstRegs count = %d, want 2", got)
	}
	if got := len(widen.SrcRegs(nil)); got != 1 {
		t.Errorf("F2F.F64.F32 SrcRegs count = %d, want 1", got)
	}
	narrow := Inst{Op: OpF2F, Mods: []string{"F32", "F64"}, Dst: []Operand{R(2)}, Src: []Operand{R(0)}}
	if got := len(narrow.DstRegs(nil)); got != 1 {
		t.Errorf("F2F.F32.F64 DstRegs count = %d, want 1", got)
	}
	if got := len(narrow.SrcRegs(nil)); got != 2 {
		t.Errorf("F2F.F32.F64 SrcRegs count = %d, want 2", got)
	}
}

func TestOpcodeClassification(t *testing.T) {
	if ClassOf(OpLDG) != ClassGlobal || ClassOf(OpLDL) != ClassLocal ||
		ClassOf(OpLDS) != ClassShared || ClassOf(OpTEX) != ClassTexture ||
		ClassOf(OpDFMA) != ClassFP64 || ClassOf(OpMUFU) != ClassSFU ||
		ClassOf(OpBRA) != ClassControl || ClassOf(OpFFMA) != ClassALU {
		t.Error("ClassOf misclassifies an opcode")
	}
	if !IsLoad(OpTEX) || IsLoad(OpSTG) {
		t.Error("IsLoad wrong")
	}
	if !IsStore(OpSTL) || IsStore(OpLDL) {
		t.Error("IsStore wrong")
	}
	if !IsConversion(OpI2F) || IsConversion(OpMOV) {
		t.Error("IsConversion wrong")
	}
	if !IsArith(OpFFMA) || IsArith(OpLDG) || IsArith(OpBRA) {
		t.Error("IsArith wrong")
	}
	for op := OpLDG; op < opMax; op++ {
		if op.String() == "" || strings.Contains(op.String(), "Opcode(") {
			t.Errorf("opcode %d has no name", op)
		}
		got, ok := OpcodeByName(op.String())
		if !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v", op.String(), got, ok)
		}
	}
}
