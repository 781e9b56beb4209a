package sass

import (
	"slices"
	"testing"
)

// TestOpcodeTable pins every opcode's facts: its mnemonic, execution
// class, load/store/conversion/arithmetic kind and the number of leading
// operands the parser takes as destinations. The literal was generated
// from the per-question switches the opcode table replaced, so a table
// row that disagrees with them fails here.
func TestOpcodeTable(t *testing.T) {
	want := []struct {
		op                       Opcode
		name                     string
		class                    Class
		load, store, conv, arith bool
		dsts                     int
	}{
		{OpInvalid, "<invalid>", ClassALU, false, false, false, false, 0},
		{OpLDG, "LDG", ClassGlobal, true, false, false, false, 1},
		{OpSTG, "STG", ClassGlobal, false, true, false, false, 1},
		{OpLDS, "LDS", ClassShared, true, false, false, false, 1},
		{OpSTS, "STS", ClassShared, false, true, false, false, 1},
		{OpLDL, "LDL", ClassLocal, true, false, false, false, 1},
		{OpSTL, "STL", ClassLocal, false, true, false, false, 1},
		{OpLDC, "LDC", ClassConst, true, false, false, false, 1},
		{OpTEX, "TEX", ClassTexture, true, false, false, false, 1},
		{OpATOM, "ATOM", ClassGlobal, false, false, false, false, 2},
		{OpATOMS, "ATOMS", ClassShared, false, false, false, false, 2},
		{OpRED, "RED", ClassGlobal, false, false, false, false, 1},
		{OpMEMBAR, "MEMBAR", ClassControl, false, false, false, false, 0},
		{OpFADD, "FADD", ClassALU, false, false, false, true, 1},
		{OpFMUL, "FMUL", ClassALU, false, false, false, true, 1},
		{OpFFMA, "FFMA", ClassALU, false, false, false, true, 1},
		{OpFMNMX, "FMNMX", ClassALU, false, false, false, true, 1},
		{OpFSETP, "FSETP", ClassALU, false, false, false, false, 2},
		{OpMUFU, "MUFU", ClassSFU, false, false, false, true, 1},
		{OpDADD, "DADD", ClassFP64, false, false, false, true, 1},
		{OpDMUL, "DMUL", ClassFP64, false, false, false, true, 1},
		{OpDFMA, "DFMA", ClassFP64, false, false, false, true, 1},
		{OpDSETP, "DSETP", ClassFP64, false, false, false, false, 2},
		{OpIADD3, "IADD3", ClassALU, false, false, false, true, 1},
		{OpIMAD, "IMAD", ClassALU, false, false, false, true, 1},
		{OpISETP, "ISETP", ClassALU, false, false, false, false, 2},
		{OpLOP3, "LOP3", ClassALU, false, false, false, true, 1},
		{OpSHF, "SHF", ClassALU, false, false, false, true, 1},
		{OpSEL, "SEL", ClassALU, false, false, false, true, 1},
		{OpIMNMX, "IMNMX", ClassALU, false, false, false, true, 1},
		{OpIABS, "IABS", ClassALU, false, false, false, true, 1},
		{OpPOPC, "POPC", ClassALU, false, false, false, true, 1},
		{OpI2F, "I2F", ClassALU, false, false, true, false, 1},
		{OpF2I, "F2I", ClassALU, false, false, true, false, 1},
		{OpF2F, "F2F", ClassALU, false, false, true, false, 1},
		{OpI2I, "I2I", ClassALU, false, false, true, false, 1},
		{OpMOV, "MOV", ClassALU, false, false, false, false, 1},
		{OpS2R, "S2R", ClassALU, false, false, false, false, 1},
		{OpSHFL, "SHFL", ClassALU, false, false, false, false, 1},
		{OpPRMT, "PRMT", ClassALU, false, false, false, false, 1},
		{OpBRA, "BRA", ClassControl, false, false, false, false, 0},
		{OpEXIT, "EXIT", ClassControl, false, false, false, false, 0},
		{OpBAR, "BAR", ClassControl, false, false, false, false, 0},
		{OpNOP, "NOP", ClassControl, false, false, false, false, 0},
		{OpRET, "RET", ClassControl, false, false, false, false, 0},
		{OpLDGSTS, "LDGSTS", ClassGlobal, false, false, false, false, 1},
	}
	if len(want) != NumOpcodes {
		t.Fatalf("the literal has %d opcodes, the ISA %d", len(want), NumOpcodes)
	}
	for i, w := range want {
		op := w.op
		if int(op) != i {
			t.Fatalf("row %d states %s", i, op)
		}
		if got := op.String(); got != w.name {
			t.Errorf("%s: mnemonic %q", w.name, got)
		}
		if got := ClassOf(op); got != w.class {
			t.Errorf("%s: ClassOf = %v, want %v", w.name, got, w.class)
		}
		if IsLoad(op) != w.load || IsStore(op) != w.store ||
			IsConversion(op) != w.conv || IsArith(op) != w.arith {
			t.Errorf("%s: load/store/conversion/arith = %v/%v/%v/%v, want %v/%v/%v/%v", w.name,
				IsLoad(op), IsStore(op), IsConversion(op), IsArith(op), w.load, w.store, w.conv, w.arith)
		}
		if op == OpInvalid {
			continue // no mnemonic to parse
		}
		if got, ok := OpcodeByName(w.name); !ok || got != op {
			t.Errorf("OpcodeByName(%q) = %v, %v", w.name, got, ok)
		}
		// Four register operands (BRA also takes its target): the parser
		// makes the first dsts of them destinations.
		line := "/*0000*/ " + w.name + " R1, R2, R3, R4 ;"
		if op == OpBRA {
			line = "/*0000*/ BRA R1, R2, R3, R4, 0x0 ;"
		}
		var in Inst
		if err := (&parser{n: 1}).inst(&in, line); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(in.Dst) != w.dsts || len(in.Dst)+len(in.Src) != 4 {
			t.Errorf("%s: parsed %d destinations and %d sources, want %d and %d",
				w.name, len(in.Dst), len(in.Src), w.dsts, 4-w.dsts)
		}
	}
}

// TestSrcRegsBaseWidth pins the base-width rule in SrcRegs: a global
// address is a register pair, a local, shared or constant address one
// register, and LDGSTS reads a pair for its global source and one
// register for its shared destination.
func TestSrcRegsBaseWidth(t *testing.T) {
	for _, c := range []struct {
		line string
		want []Reg
	}{
		{"LDG.E.SYS R4, [R2+0x10]", []Reg{2, 3}},
		{"STG.E.SYS [R2], R5", []Reg{5, 2, 3}},
		{"RED.E.ADD.F32 [R2], R5", []Reg{5, 2, 3}},
		{"LDS R4, [R2+0x10]", []Reg{2}},
		{"STS [R2+0x4], R5", []Reg{5, 2}},
		{"LDL R4, [R1+0x8]", []Reg{1}},
		{"STL [R1], R5", []Reg{5, 1}},
		{"ATOMS.ADD.F32 R4, [R2], R5", []Reg{5, 2}},
		{"LDGSTS.E.BYPASS.128 [R3+0x10], [R6]", []Reg{6, 7, 3}},
	} {
		var in Inst
		if err := (&parser{n: 1}).inst(&in, "/*0000*/ "+c.line+" ;"); err != nil {
			t.Fatal(err)
		}
		if got := in.SrcRegs(nil); !slices.Equal(got, c.want) {
			t.Errorf("%s: SrcRegs = %v, want %v", c.line, got, c.want)
		}
	}
}
