package codegen

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

// sumProgram builds a kernel that loads n values from a pointer param,
// sums them, and stores the result: with n large and the budget small,
// it forces register spilling.
func sumProgram(t *testing.T, n int) *kasm.Program {
	t.Helper()
	b := kasm.NewBuilder("_Zsum", "sm_70", "sum.cu")
	b.NumParams(2)
	b.Line(3)
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)
	vals := make([]kasm.VReg, n)
	for i := 0; i < n; i++ {
		b.Line(4 + i)
		vals[i] = b.Ldg(in, int64(4*i), 4, false)
	}
	b.Line(4 + n)
	acc := b.MovImmF32(0)
	for i := 0; i < n; i++ {
		b.FAddTo(kasm.VR(acc), kasm.VR(acc), kasm.VR(vals[i]))
	}
	b.Stg(out, 0, acc, 4)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestCompileNoSpill(t *testing.T) {
	p := sumProgram(t, 8)
	k, err := Compile(p, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if k.LocalBytes != 0 {
		t.Errorf("LocalBytes = %d, want 0 (no spills expected)", k.LocalBytes)
	}
	ops := k.CountOpcodes()
	if ops[sass.OpSTL] != 0 || ops[sass.OpLDL] != 0 {
		t.Errorf("unexpected spill code: %d STL, %d LDL", ops[sass.OpSTL], ops[sass.OpLDL])
	}
	if ops[sass.OpLDG] != 8 {
		t.Errorf("LDG count = %d, want 8", ops[sass.OpLDG])
	}
	// 8 loads + address pairs + accumulator: comfortably under 32 regs.
	if k.NumRegs > 32 {
		t.Errorf("NumRegs = %d, suspiciously high", k.NumRegs)
	}
}

func TestCompileSpills(t *testing.T) {
	p := sumProgram(t, 24) // 24 live floats + two pointer pairs
	k, err := Compile(p, Options{MaxRegs: 12})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if k.NumRegs > 12 {
		t.Errorf("NumRegs = %d exceeds budget 12", k.NumRegs)
	}
	ops := k.CountOpcodes()
	if ops[sass.OpSTL] == 0 || ops[sass.OpLDL] == 0 {
		t.Errorf("expected spill code under budget 12: %d STL, %d LDL", ops[sass.OpSTL], ops[sass.OpLDL])
	}
	if k.LocalBytes == 0 {
		t.Error("LocalBytes = 0 despite spilling")
	}
	// Spill stores must carry source-line attribution for §4.2 reporting.
	for i := range k.Insts {
		if k.Insts[i].Op == sass.OpSTL && k.Insts[i].Line == 0 {
			t.Error("STL without line attribution")
			break
		}
	}
}

func TestCompileBudgetMonotonic(t *testing.T) {
	// Property: smaller budgets never yield more registers than allowed,
	// and the compile always succeeds down to a sane floor.
	p := sumProgram(t, 16)
	prevLocal := -1
	for _, budget := range []int{255, 32, 20, 12, 10} {
		k, err := Compile(p, Options{MaxRegs: budget})
		if err != nil {
			t.Fatalf("Compile(budget=%d): %v", budget, err)
		}
		if k.NumRegs > budget {
			t.Errorf("budget %d: NumRegs = %d", budget, k.NumRegs)
		}
		if prevLocal >= 0 && k.LocalBytes < prevLocal {
			t.Errorf("budget %d: LocalBytes %d decreased from %d with tighter budget",
				budget, k.LocalBytes, prevLocal)
		}
		prevLocal = k.LocalBytes
	}
}

func TestCompileLoop(t *testing.T) {
	// for (i = 0; i < n; i++) acc += in[i]; out[0] = acc
	b := kasm.NewBuilder("_Zloopsum", "sm_70", "loop.cu")
	b.NumParams(3)
	b.Line(2)
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)
	n := b.Param32(2)
	i := b.MovImm(0)
	acc := b.MovImmF32(0)
	addr := b.MovPair(in)
	b.Line(3)
	b.LabelName("loop")
	v := b.Ldg(addr, 0, 4, false)
	b.Line(4)
	b.FAddTo(kasm.VR(acc), kasm.VR(acc), kasm.VR(v))
	b.IAddTo(kasm.VRElem(addr, 0), kasm.VRElem(addr, 0), kasm.VImm(4))
	b.IAddTo(kasm.VR(i), kasm.VR(i), kasm.VImm(1))
	p0 := b.ISetp("LT", kasm.VR(i), kasm.VR(n))
	b.BraIf(p0, false, "loop")
	b.Line(6)
	b.Stg(out, 0, acc, 4)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	k, err := Compile(p, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// The backward branch must target the LDG.
	var bra *sass.Inst
	for idx := range k.Insts {
		if k.Insts[idx].Op == sass.OpBRA {
			bra = &k.Insts[idx]
		}
	}
	if bra == nil {
		t.Fatal("no branch emitted")
	}
	tgt := k.InstAt(bra.Target)
	if tgt == nil || tgt.Op != sass.OpLDG {
		t.Errorf("branch targets %v, want the loop-head LDG", tgt)
	}
	// CFG must see exactly one loop.
	cfg, err := sass.BuildCFG(k)
	if err != nil {
		t.Fatalf("BuildCFG: %v", err)
	}
	if len(cfg.Loops) != 1 {
		t.Errorf("loops = %d, want 1", len(cfg.Loops))
	}
}

// TestPartialWriteKeepsPairLive: a write through one element of a pair
// leaves the other element in place, so the pair is live from its first
// element write to its last use, across every partial write.
func TestPartialWriteKeepsPairLive(t *testing.T) {
	b := kasm.NewBuilder("_Zpair", "sm_70", "pair.cu")
	b.NumParams(1)
	val := b.MovImm(1)
	pair := b.MovPair(b.ParamPtr(0)) // MOV pair.0 ; MOV pair.1
	b.MovTo(kasm.VRElem(pair, 0), kasm.VImm(64))
	b.Stg(pair, 0, val, 4)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var du defUse
	du.compute(p)
	liveOut := computeVLiveness(p, &du)
	// MovPair's two MOVs and the MovTo come just before the STG.
	stg := len(p.Insts) - 2
	for i := stg - 3; i < stg; i++ {
		if liveOut[i][pair/64]>>(pair%64)&1 == 0 {
			t.Errorf("pair dead after inst %d (%s): a partial write must not end it", i, p.Insts[i].Op)
		}
	}
}

func TestScoreboardAssignment(t *testing.T) {
	p := sumProgram(t, 4)
	k, err := Compile(p, Options{})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Every load carries a write scoreboard.
	pendingSlots := map[int8]bool{}
	waited := 0
	for idx := range k.Insts {
		in := &k.Insts[idx]
		if sass.IsLoad(in.Op) {
			if in.Ctrl.WrBar == sass.NoBar {
				t.Errorf("load at %#x has no WrBar", in.PC)
			} else {
				pendingSlots[in.Ctrl.WrBar] = true
			}
		}
		if in.Ctrl.WaitMask != 0 {
			waited++
			for s := int8(0); s < 6; s++ {
				if in.Ctrl.WaitMask&(1<<uint(s)) != 0 && !pendingSlots[s] {
					t.Errorf("inst at %#x waits on slot %d that was never set", in.PC, s)
				}
			}
		}
	}
	if waited == 0 {
		t.Error("no instruction waits on any scoreboard; consumers unprotected")
	}
}

func TestCompileErrors(t *testing.T) {
	p := sumProgram(t, 4)
	if _, err := Compile(p, Options{MaxRegs: 4}); err == nil {
		t.Error("Compile accepted budget below floor")
	}
	bad := &kasm.Program{Name: "x"}
	if _, err := Compile(bad, Options{}); err == nil {
		t.Error("Compile accepted empty program")
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	p := sumProgram(t, 24)
	before := len(p.Insts)
	if _, err := Compile(p, Options{MaxRegs: 12}); err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(p.Insts) != before {
		t.Errorf("Compile mutated input program: %d -> %d insts", before, len(p.Insts))
	}
	// Second compile with a different budget must work off the original.
	k, err := Compile(p, Options{})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if ops := k.CountOpcodes(); ops[sass.OpSTL] != 0 {
		t.Error("recompile with large budget still spills; input was mutated")
	}
}

func TestQuickCompileWithinBudget(t *testing.T) {
	// Property: for any live-value count and budget, compilation either
	// fails cleanly or produces a valid kernel within budget.
	f := func(n8, b8 uint8) bool {
		n := int(n8%28) + 1
		budget := int(b8%56) + 8
		b := kasm.NewBuilder(fmt.Sprintf("_Zq%d_%d", n, budget), "sm_70", "q.cu")
		b.NumParams(2)
		b.Line(1)
		in := b.ParamPtr(0)
		out := b.ParamPtr(1)
		vals := make([]kasm.VReg, n)
		for i := 0; i < n; i++ {
			vals[i] = b.Ldg(in, int64(4*i), 4, false)
		}
		acc := b.MovImmF32(1)
		for i := 0; i < n; i++ {
			b.FFmaTo(kasm.VR(acc), kasm.VR(acc), kasm.VR(vals[i]), kasm.VR(vals[n-1-i]))
		}
		b.Stg(out, 0, acc, 4)
		b.Exit()
		p, err := b.Build()
		if err != nil {
			return false
		}
		k, err := Compile(p, Options{MaxRegs: budget})
		if err != nil {
			// Acceptable only for genuinely tiny budgets.
			return budget < 12
		}
		return k.Validate() == nil && k.NumRegs <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompileLeavesProgram: Compile shares the program's instructions
// instead of cloning them, so fusion and spill rounds must copy before
// they change anything. Over the pinned population (spill rounds at
// budgets 8-16, LDGSTS fusion on sm_80) the program is unchanged after
// Compile, and compiling it again gives the same kernel.
func TestCompileLeavesProgram(t *testing.T) {
	for i := 0; i < pinnedPrograms; i++ {
		p, opts := pinnedCase(i)
		fresh, _ := pinnedCase(i)
		k, err := Compile(p, opts)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		if !reflect.DeepEqual(p, fresh) {
			t.Fatalf("program %d (%s, MaxRegs %d) changed by Compile", i, opts.Arch.SM, opts.MaxRegs)
		}
		again, err := Compile(p, opts)
		if err != nil || sass.Print(again) != sass.Print(k) {
			t.Fatalf("program %d: a second Compile differs (%v)", i, err)
		}
	}
}
