package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
)

// constWord and constPair are what parameter slot 1 (c[0x0][0x168]) holds
// in these tests, read as 32 and as 64 bits.
const (
	constPair uint64 = 0x4014000000000007 // a double just above 5.0
	constWord        = uint32(constPair & 0xffffffff)
)

// launchSASS parses a hand-written kernel body (one instruction per line,
// PCs and header added here), launches one 32-thread block with a 256-byte
// output buffer in parameter slot 0, and returns the buffer's 32 uint64s.
func launchSASS(t *testing.T, regs int, body string) ([]uint64, error) {
	t.Helper()
	var text strings.Builder
	fmt.Fprintf(&text, ".kernel k sm_70 regs=%d shared=64 local=16 const=0\n//## File \"k.cu\", line 7\n", regs)
	pc := 0
	for _, line := range strings.Split(body, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			fmt.Fprintf(&text, "/*%04x*/ %s ;\n", pc, line)
			pc += sass.InstBytes
		}
	}
	k, err := sass.Parse(text.String())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text.String())
	}
	dev := NewDevice(gpu.V100())
	buf := dev.MustAlloc(8 * 32)
	_, err = Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(32), Params: []uint64{buf.Addr, constPair},
	}, Config{SampleSMs: 1, Workers: 1, MaxCycles: 1e5})
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 8*32)
	if err := dev.CopyFromDevice(raw, buf); err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, 32)
	for i := range out {
		for b := 7; b >= 0; b-- {
			out[i] = out[i]<<8 | uint64(raw[8*i+b])
		}
	}
	return out, nil
}

// resultKernel wraps one instruction under test, which must leave its
// result in R6 (or the pair R6:R7), between a prologue providing the
// lane-varying inputs — R0 = lane, P0 = lane < 16, R4:R5 = float64(lane) —
// and an epilogue storing R6:R7 to out[lane].
func resultKernel(inst string) string {
	return `
		S2R R0, SR_TID.X
		ISETP.LT.AND P0, PT, R0, 0x10, PT
		I2F.F64.S32 R4, R0
		` + inst + `
		SHF.L R2, R0, 0x3, RZ
		IMAD.WIDE R2, R2, 0x1, c[0x0][0x160]
		STG.E.64.SYS [R2], R6
		EXIT`
}

// operandCase is one way to spell a source operand and what it reads.
type operandCase struct {
	text string
	val  func(lane int) uint64
}

func lt16(lane int) uint64 {
	if lane < 16 {
		return 1
	}
	return 0
}

// operands32 are the operand kinds a 32-bit source may be; operands64 the
// ones a register-pair source may be. A negated register reads as a
// floating-point opcode reads it, with its sign bit flipped; asInt gives
// the integer reading.
var operands32 = []operandCase{
	{"R0", func(l int) uint64 { return uint64(l) }},
	{"-R0", func(l int) uint64 { return uint64(l) ^ 1<<31 }},
	{"RZ", func(int) uint64 { return 0 }},
	{"-RZ", func(int) uint64 { return 1 << 31 }},
	{"0x5", func(int) uint64 { return 5 }},
	{"c[0x0][0x168]", func(int) uint64 { return uint64(constWord) }},
	{"SR_LANEID", func(l int) uint64 { return uint64(l) }},
	{"SR_NTID.X", func(int) uint64 { return 32 }},
	{"SR_INVALID", func(int) uint64 { return 0 }},
	{"P0", lt16},
	{"!P0", func(l int) uint64 { return 1 ^ lt16(l) }},
	{"PT", func(int) uint64 { return 1 }},
	{"!PT", func(int) uint64 { return 0 }},
}

var operands64 = []operandCase{
	{"R4", func(l int) uint64 { return math.Float64bits(float64(l)) }},
	{"-R4", func(l int) uint64 { return math.Float64bits(float64(l)) ^ 1<<63 }},
	{"RZ", func(int) uint64 { return 0 }},
	{"-RZ", func(int) uint64 { return 1 << 63 }},
	{"c[0x0][0x168]", func(int) uint64 { return constPair }},
}

func fb(v uint64) float32 { return math.Float32frombits(uint32(v)) }
func bf(f float32) uint64 { return uint64(math.Float32bits(f)) }
func db(v uint64) float64 { return math.Float64frombits(v) }
func bd(f float64) uint64 { return math.Float64bits(f) }
func u(v int32) uint64    { return uint64(uint32(v)) }

// opCase is one register-to-register opcode: its mnemonic, which of its
// sources are pairs, whether its result is a pair, and its semantics as a
// Go expression over the operand values.
type opCase struct {
	mnemonic string
	wide     []bool // per source: a 64-bit pair
	wideDst  bool
	ref      func(a, b, c uint64) uint64
}

var w32x1, w32x2, w32x3 = []bool{false}, []bool{false, false}, []bool{false, false, false}

var opCases = []opCase{
	{"MOV", w32x1, false, func(a, _, _ uint64) uint64 { return a }},
	{"S2R", w32x1, false, func(a, _, _ uint64) uint64 { return a }},
	{"I2I.S32.S32", w32x1, false, func(a, _, _ uint64) uint64 { return a }},
	{"IADD3", w32x3, false, func(a, b, c uint64) uint64 { return u(int32(a) + int32(b) + int32(c)) }},
	{"IMAD", w32x3, false, func(a, b, c uint64) uint64 { return u(int32(a)*int32(b) + int32(c)) }},
	{"IMAD.WIDE", []bool{false, false, true}, true, func(a, b, c uint64) uint64 {
		return uint64(int64(int32(a))*int64(int32(b))) + c
	}},
	{"IMAD.WIDE.U32", []bool{false, false, true}, true, func(a, b, c uint64) uint64 {
		return uint64(uint32(a))*uint64(uint32(b)) + c
	}},
	{"LOP3.AND", w32x2, false, func(a, b, _ uint64) uint64 { return a & b }},
	{"LOP3.OR", w32x2, false, func(a, b, _ uint64) uint64 { return a | b }},
	{"LOP3.XOR", w32x2, false, func(a, b, _ uint64) uint64 { return a ^ b }},
	{"SHF.L", w32x2, false, func(a, b, _ uint64) uint64 { return uint64(uint32(a) << (uint32(b) & 31)) }},
	{"SHF.R", w32x2, false, func(a, b, _ uint64) uint64 { return uint64(uint32(a) >> (uint32(b) & 31)) }},
	{"SEL", w32x3, false, func(a, b, p uint64) uint64 {
		if p != 0 {
			return a
		}
		return b
	}},
	{"IMNMX.MIN", w32x2, false, func(a, b, _ uint64) uint64 { return u(min(int32(a), int32(b))) }},
	{"IMNMX.MAX", w32x2, false, func(a, b, _ uint64) uint64 { return u(max(int32(a), int32(b))) }},
	{"IABS", w32x1, false, func(a, _, _ uint64) uint64 {
		if int32(a) < 0 {
			return u(-int32(a))
		}
		return a
	}},
	{"POPC", w32x1, false, func(a, _, _ uint64) uint64 { return uint64(bits.OnesCount32(uint32(a))) }},
	{"FADD", w32x2, false, func(a, b, _ uint64) uint64 { return bf(fb(a) + fb(b)) }},
	{"FMUL", w32x2, false, func(a, b, _ uint64) uint64 { return bf(fb(a) * fb(b)) }},
	{"FFMA", w32x3, false, func(a, b, c uint64) uint64 { return bf(fb(a)*fb(b) + fb(c)) }},
	// No operand here is a NaN, so min/max are the plain ones.
	{"FMNMX.MIN", w32x2, false, func(a, b, _ uint64) uint64 {
		if fb(a) < fb(b) {
			return a
		}
		return b
	}},
	{"FMNMX.MAX", w32x2, false, func(a, b, _ uint64) uint64 {
		if fb(a) < fb(b) {
			return b
		}
		return a
	}},
	{"MUFU.RCP", w32x1, false, func(a, _, _ uint64) uint64 { return bf(1 / fb(a)) }},
	{"MUFU.SQRT", w32x1, false, func(a, _, _ uint64) uint64 { return bf(float32(math.Sqrt(float64(fb(a))))) }},
	{"MUFU.RSQ", w32x1, false, func(a, _, _ uint64) uint64 { return bf(float32(1 / math.Sqrt(float64(fb(a))))) }},
	{"I2F.F32.S32", w32x1, false, func(a, _, _ uint64) uint64 { return bf(float32(int32(a))) }},
	{"I2F.F64.S32", w32x1, true, func(a, _, _ uint64) uint64 { return bd(float64(int32(a))) }},
	{"F2I.S32.F32.TRUNC", w32x1, false, func(a, _, _ uint64) uint64 { return u(int32(fb(a))) }},
	{"F2F.F64.F32", w32x1, true, func(a, _, _ uint64) uint64 { return bd(float64(fb(a))) }},
	{"F2F.F32.F64", []bool{true}, false, func(a, _, _ uint64) uint64 { return bf(float32(db(a))) }},
	{"DADD", []bool{true, true}, true, func(a, b, _ uint64) uint64 { return bd(db(a) + db(b)) }},
	{"DMUL", []bool{true, true}, true, func(a, b, _ uint64) uint64 { return bd(db(a) * db(b)) }},
	{"DFMA", []bool{true, true, true}, true, func(a, b, c uint64) uint64 { return bd(db(a)*db(b) + db(c)) }},
}

// asInt is kind as an opcode reads it that negates in two's complement
// rather than by the sign bit: every opcode but the floating-point ones.
func asInt(mnemonic string, kind operandCase, wide bool) operandCase {
	fp := strings.HasPrefix(mnemonic, "F") || strings.HasPrefix(mnemonic, "D") || strings.HasPrefix(mnemonic, "MUFU")
	if fp || !strings.HasPrefix(kind.text, "-") {
		return kind
	}
	sign, mask := uint64(1<<31), uint64(math.MaxUint32)
	if wide {
		sign, mask = 1<<63, math.MaxUint64
	}
	return operandCase{kind.text, func(l int) uint64 { return -(kind.val(l) ^ sign) & mask }}
}

func operandsFor(wide bool) []operandCase {
	if wide {
		return operands64
	}
	return operands32
}

// TestExecOperandKinds crosses every register-to-register opcode the
// executor models, and the shuffles, with every operand kind each source
// position may be, and compares all 32 lanes with the Go expression.
func TestExecOperandKinds(t *testing.T) {
	for _, op := range opCases {
		for pos := range op.wide {
			for _, kind := range operandsFor(op.wide[pos]) {
				// The position under test gets kind; the others the
				// lane-varying register of their width.
				srcs := make([]operandCase, 3)
				var texts []string
				for i := range op.wide {
					srcs[i] = operandsFor(op.wide[i])[0]
					if i == pos {
						srcs[i] = asInt(op.mnemonic, kind, op.wide[i])
					}
					texts = append(texts, srcs[i].text)
				}
				inst := op.mnemonic + " R6, " + strings.Join(texts, ", ")
				t.Run(inst, func(t *testing.T) {
					got, err := launchSASS(t, 8, resultKernel(inst))
					if err != nil {
						t.Fatal(err)
					}
					for lane, g := range got {
						var v [3]uint64
						for i := range op.wide {
							v[i] = srcs[i].val(lane)
						}
						want := op.ref(v[0], v[1], v[2])
						if !op.wideDst {
							want = uint64(uint32(want))
						}
						if g != want {
							t.Fatalf("lane %d = %#x, want %#x", lane, g, want)
						}
					}
				})
			}
		}
	}

	// Shuffles read another lane's value of src 0, selected by src 1.
	for _, mode := range []string{"DOWN", "UP", "BFLY", "IDX"} {
		for pos := 0; pos < 2; pos++ {
			for _, kind := range operands32 {
				srcs := []operandCase{operands32[0], {"0x3", func(int) uint64 { return 3 }}}
				srcs[pos] = asInt("SHFL", kind, false)
				inst := fmt.Sprintf("SHFL.%s R6, %s, %s, 0x1f", mode, srcs[0].text, srcs[1].text)
				t.Run(inst, func(t *testing.T) {
					got, err := launchSASS(t, 8, resultKernel(inst))
					if err != nil {
						t.Fatal(err)
					}
					for lane, g := range got {
						arg := int(srcs[1].val(lane))
						from := lane
						switch mode {
						case "DOWN":
							from = lane + arg
						case "UP":
							from = lane - arg
						case "BFLY":
							from = lane ^ arg
						case "IDX":
							from = arg & 31
						}
						if from < 0 || from > 31 {
							from = lane
						}
						if want := srcs[0].val(from); g != want {
							t.Fatalf("lane %d = %#x, want %#x (lane %d's value)", lane, g, want, from)
						}
					}
				})
			}
		}
	}
}

// TestSetpWritesOnlyExecLanes: a guarded ISETP writes its destination
// predicate in the lanes it runs on and leaves the other lanes' bits.
func TestSetpWritesOnlyExecLanes(t *testing.T) {
	got, err := launchSASS(t, 8, resultKernel(`ISETP.GE.AND P1, PT, R0, 0x8, PT
		@P1 ISETP.GE.AND P0, PT, R0, 0x18, PT
		SEL R6, 0x1, RZ, P0
		MOV R7, RZ`))
	if err != nil {
		t.Fatal(err)
	}
	for lane, g := range got {
		// Lanes 0-7 keep the prologue's P0 (lane < 16); lanes 8-31 hold
		// lane >= 24.
		var want uint64
		if lane < 8 || lane >= 24 {
			want = 1
		}
		if g != want {
			t.Fatalf("lane %d: P0 = %d, want %d", lane, g, want)
		}
	}
}

// TestExecCompare runs every comparison of ISETP (signed and .U32) and
// FSETP against a lane-varying left side that is negative in half the
// lanes, ANDed with a source predicate, and reads back both destination
// predicates: R6 = P1 + 2*P2.
func TestExecCompare(t *testing.T) {
	cmps := map[string]func(a, b float64) bool{
		"LT": func(a, b float64) bool { return a < b }, "LE": func(a, b float64) bool { return a <= b },
		"GT": func(a, b float64) bool { return a > b }, "GE": func(a, b float64) bool { return a >= b },
		"EQ": func(a, b float64) bool { return a == b }, "NE": func(a, b float64) bool { return a != b },
	}
	for name, cmp := range cmps {
		for _, typ := range []string{"ISETP", "ISETP.U32", "FSETP"} {
			op, mods, _ := strings.Cut(typ, ".")
			mnemonic := op + "." + name
			if mods != "" {
				mnemonic += "." + mods
			}
			t.Run(mnemonic, func(t *testing.T) {
				left := "IADD3 R1, R0, -0xc, RZ" // lane-12: -12..19
				if op == "FSETP" {
					left += "\nI2F.F32.S32 R1, R1"
				}
				right := "0x4"
				if op == "FSETP" {
					right = "0x40800000" // 4.0
				}
				got, err := launchSASS(t, 8, resultKernel(left+`
					`+mnemonic+`.AND P1, P2, R1, `+right+`, P0
					SEL R6, 0x1, RZ, P1
					SEL R1, 0x2, RZ, P2
					IADD3 R6, R6, R1, RZ`))
				if err != nil {
					t.Fatal(err)
				}
				for lane, g := range got {
					a := float64(lane - 12)
					if mods == "U32" {
						a = float64(uint32(lane - 12))
					}
					var want uint64
					switch {
					case lane >= 16: // source predicate false: both clear
					case cmp(a, 4):
						want = 1
					default:
						want = 2
					}
					if g != want {
						t.Fatalf("lane %d (left %v): P1+2*P2 = %d, want %d", lane, a, g, want)
					}
				}
			})
		}
	}
}

// TestConstantOutOfRange pins when a constant outside bank 0 faults: with
// kernel, PC and line when the instruction issues with an active lane,
// and not at all in code that is predicated off.
func TestConstantOutOfRange(t *testing.T) {
	_, err := launchSASS(t, 8, resultKernel("IADD3 R6, R0, c[0x0][0x4000], RZ"))
	var ee *execError
	if err == nil || !asExecError(err, &ee) || ee.Kernel != "k" || ee.PC != 0x30 || ee.Line != 7 ||
		!strings.Contains(err.Error(), "constant c[0x0][0x4000] out of range") {
		t.Errorf("active lane: err = %v, want an execError at k/0x30/line 7 naming the constant", err)
	}
	_, err = launchSASS(t, 8, resultKernel("DADD R6, R4, c[0x3][0x0]"))
	if err == nil || !strings.Contains(err.Error(), "constant pair c[0x3][0x0] out of range") {
		t.Errorf("pair in bank 3: err = %v", err)
	}
	for _, guard := range []string{"@!PT", "@P3", "@!P0 EXIT\n@!P0"} {
		got, err := launchSASS(t, 8, resultKernel("MOV R6, 0x2a\n"+guard+" IADD3 R6, R0, c[0x0][0x4000], RZ"))
		if err != nil {
			t.Errorf("guard %q: %v, want no error", guard, err)
			continue
		}
		if got[0] != 0x2a {
			t.Errorf("guard %q: lane 0 = %#x, want the MOV's 0x2a", guard, got[0])
		}
	}
}

// TestRZPairs: RZ where a register pair is expected reads 0 and discards
// writes, and [RZ] addresses byte imm of global memory.
func TestRZPairs(t *testing.T) {
	for _, tc := range []struct {
		inst string
		want func(lane int) uint64
	}{
		{"IMAD.WIDE R6, R0, 0x4, RZ", func(l int) uint64 { return uint64(4 * l) }},
		{"DADD R6, R4, RZ", func(l int) uint64 { return math.Float64bits(float64(l)) }},
		{"MOV R6, 0x9\nIMAD.WIDE RZ, R0, 0x4, R6", func(int) uint64 { return 9 }},
		{"MOV R6, 0x9\nDADD RZ, R4, R4", func(int) uint64 { return 9 }},
		{"MOV R6, 0x9\nLDG.E.64.SYS RZ, [R2]", func(int) uint64 { return 9 }}, // R2:R3 = 0: faults below
		{"STS.64 [RZ+0x8], RZ\nLDS.64 R6, [RZ+0x8]", func(int) uint64 { return 0 }},
	} {
		got, err := launchSASS(t, 8, resultKernel(tc.inst))
		if strings.Contains(tc.inst, "LDG") {
			if err == nil || !strings.Contains(err.Error(), "device address 0x0+8 out of bounds") {
				t.Errorf("%s: err = %v, want the device's out-of-bounds error", tc.inst, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.inst, err)
			continue
		}
		for lane, g := range got {
			if want := tc.want(lane); g != want {
				t.Errorf("%s: lane %d = %#x, want %#x", tc.inst, lane, g, want)
				break
			}
		}
	}
	_, err := launchSASS(t, 8, resultKernel("LDG.E.SYS R6, [RZ+0x10]"))
	if err == nil || !strings.Contains(err.Error(), "device address 0x10+4 out of bounds") {
		t.Errorf("LDG [RZ+0x10]: err = %v, want the device's out-of-bounds error for address 0x10", err)
	}
	_, err = launchSASS(t, 8, resultKernel("LDG.E.SYS R6, [RZ+-0x1]"))
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("LDG [RZ-1] (address wraps): err = %v, want the device's out-of-bounds error", err)
	}
}

// TestMalformedKernelIsLaunchError: a kernel that parses and validates but
// that the executor cannot run fails the launch at decode, naming the PC,
// before any SM starts — one row per class of defect.
func TestMalformedKernelIsLaunchError(t *testing.T) {
	for _, tc := range []struct {
		name, inst, wantErr string
		regs                int
	}{
		{"read beyond NumRegs", "MOV R6, R20", "R20 (1 registers wide) is outside the kernel's 8 registers", 8},
		{"pair read straddles NumRegs", "DADD R4, R4, R7", "R7 (2 registers wide) is outside", 8},
		{"pair write runs into RZ", "IMAD.WIDE R254, R0, 0x4, RZ", "R254 (2 registers wide) is outside the kernel's 255 registers", 255},
		{"address pair beyond NumRegs", "LDG.E.SYS R6, [R7]", "R7 (2 registers wide) is outside", 8},
		{"stored registers beyond NumRegs", "STS.128 [RZ], R6", "R6 (4 registers wide) is outside", 8},
		{"missing source", "SEL R6, R0", "SEL needs 3 source operands, has 1", 8},
		{"no source at all", "MOV R6", "MOV needs 1 source operands, has 0", 8},
		{"missing comparison", "ISETP P1, R0, R0, PT", "ISETP without a comparison modifier", 8},
		{"unknown comparison", "ISETP.AND P1, PT, R0, R0, PT", `comparison "AND" not modeled`, 8},
		{"missing MUFU function", "MUFU R6, R0", "MUFU variant [] not modeled", 8},
		{"missing SHFL mode", "SHFL R6, R0, 0x1, 0x1f", "SHFL variant [] not modeled", 8},
		{"F2F without types", "F2F R6, R0", "F2F needs .F64.F32 or .F32.F64", 8},
		{"immediate as a pair", "DADD R6, R4, 0x1", "unreadable 64-bit operand 0x1", 8},
		{"predicate as a pair", "DMUL R6, R4, P0", "unreadable 64-bit operand P0", 8},
		{"memory operand as a value", "IADD3 R6, R0, [R2], RZ", "unreadable 32-bit operand [R2]", 8},
		{"predicate destination of an ALU op", "MOV P1, R0", "MOV without a register destination", 8},
		{"register destination of a compare", "ISETP.LT.AND R1, PT, R0, R0, PT", "ISETP cannot write R1", 8},
		{"load without address", "LDG.E.SYS R6, R2", "LDG without memory operand", 8},
		{"store of an immediate", "STG.E.SYS [R2], 0x1", "STG needs a register to store", 8},
		{"atomic without operand", "RED.E.ADD [R2]", "RED needs 1 source operands, has 0", 8},
		{"unmodeled opcode", "PRMT R6, R0, 0x1, R0", "opcode PRMT not modeled", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := launchSASS(t, tc.regs, resultKernel(tc.inst))
			if err == nil {
				t.Fatal("launch succeeded")
			}
			if !strings.HasPrefix(err.Error(), "sim: kernel k at PC 0x30: ") || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %q, want \"sim: kernel k at PC 0x30: ...%s...\"", err, tc.wantErr)
			}
		})
	}

	// What the text format cannot spell: register and predicate numbers
	// the parser would refuse, and header fields no launch can honour.
	k := vecAddKernel(t)
	bad := func(name string, mutate func(k *sass.Kernel), wantErr string) {
		t.Helper()
		c := *k
		c.Insts = append([]sass.Inst(nil), k.Insts...)
		mutate(&c)
		dev := NewDevice(gpu.V100())
		_, err := Launch(dev, LaunchSpec{Kernel: &c, Grid: D1(1), Block: D1(32), Params: make([]uint64, 4)}, Config{})
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, wantErr)
		}
	}
	bad("guard predicate 9", func(c *sass.Kernel) { c.Insts[0].Pred = 9 }, "guard predicate 9 does not exist")
	bad("negative local", func(c *sass.Kernel) { c.LocalBytes = -4 }, "local=-4")
	bad("huge local", func(c *sass.Kernel) { c.LocalBytes = 1 << 40 }, "need 0 <= local")
	bad("huge const", func(c *sass.Kernel) { c.ConstBytes = 1 << 40 }, "const <=")
	bad("negative regs", func(c *sass.Kernel) { c.NumRegs = -1 }, "regs=-1")
}

// TestSpecialRegisterRows checks every per-thread special register
// against the thread's coordinates computed on the host: a 5×3×4 block
// (two warps, the second partial) on a 7×3×3 grid, all on one SM, so
// block slots are recycled and the block-index rows refilled. Each thread
// stores its seven registers at the slot its own registers address.
func TestSpecialRegisterRows(t *testing.T) {
	arch := gpu.V100()
	arch.NumSMs = 1
	d := NewDevice(arch)
	block, grid := Dim3{X: 5, Y: 3, Z: 4}, Dim3{X: 7, Y: 3, Z: 3}
	threads := grid.Count() * block.Count()
	buf := d.MustAlloc(32 * threads)
	text := ".kernel k sm_70 regs=12 shared=0 local=0 const=0\n"
	for i, line := range []string{
		"S2R R0, SR_TID.X", "S2R R1, SR_TID.Y", "S2R R2, SR_TID.Z",
		"S2R R3, SR_CTAID.X", "S2R R4, SR_CTAID.Y", "S2R R5, SR_CTAID.Z", "S2R R6, SR_LANEID",
		"IMAD R7, R2, 0x3, R1", "IMAD R7, R7, 0x5, R0", // thread in block
		"IMAD R8, R5, 0x3, R4", "IMAD R8, R8, 0x7, R3", // block in grid
		"IMAD R8, R8, 0x3c, R7", "SHF.L R8, R8, 0x5, RZ",
		"IMAD.WIDE R8, R8, 0x1, c[0x0][0x160]",
		"STG.E.SYS [R8], R0", "STG.E.SYS [R8+0x4], R1", "STG.E.SYS [R8+0x8], R2", "STG.E.SYS [R8+0xc], R3",
		"STG.E.SYS [R8+0x10], R4", "STG.E.SYS [R8+0x14], R5", "STG.E.SYS [R8+0x18], R6",
		"EXIT",
	} {
		text += fmt.Sprintf("/*%04x*/ %s ;\n", i*sass.InstBytes, line)
	}
	k, err := sass.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Launch(d, LaunchSpec{Kernel: k, Grid: grid, Block: block, Params: []uint64{buf.Addr}}, Config{SampleSMs: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Occupancy.BlocksPerSM >= grid.Count() {
		t.Fatalf("%d blocks resident at once: no slot is recycled", res.Occupancy.BlocksPerSM)
	}
	got, err := d.ReadI32(buf, 8*threads)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < threads; g++ {
		b, lin := g/block.Count(), g%block.Count()
		want := []int32{int32(lin % 5), int32(lin / 5 % 3), int32(lin / 15), int32(b % 7), int32(b / 7 % 3), int32(b / 21), int32(lin % 32), 0}
		if !slices.Equal(got[8*g:8*g+8], want) {
			t.Fatalf("thread %d of block %d: stored %v, want %v", lin, b, got[8*g:8*g+8], want)
		}
	}
}
