package sass

import (
	"testing"
)

// loopKernel builds a kernel with a counted loop:
//
//	i = 0
//	loop:  body (load, fma) ; i++ ; if i < n goto loop
//	exit
func loopKernel() *Kernel {
	k := &Kernel{Name: "_Zloop", Arch: "sm_70", NumRegs: 16, SourceFile: "l.cu"}
	ctrl := DefaultCtrl()
	k.Insts = []Inst{
		/* 0 */ {Op: OpMOV, Dst: []Operand{R(0)}, Src: []Operand{Imm(0)}, Ctrl: ctrl, Line: 1},
		/* 1 */ {Op: OpMOV, Dst: []Operand{R(6)}, Src: []Operand{Imm(0)}, Ctrl: ctrl, Line: 1},
		// loop header/body:
		/* 2 */ {Op: OpLDG, Mods: []string{"E", "SYS"}, Dst: []Operand{R(4)}, Src: []Operand{Mem(2, 0)}, Ctrl: ctrl, Line: 2},
		/* 3 */ {Op: OpFFMA, Dst: []Operand{R(6)}, Src: []Operand{R(4), R(4), R(6)}, Ctrl: ctrl, Line: 3},
		/* 4 */ {Op: OpIADD3, Dst: []Operand{R(0)}, Src: []Operand{R(0), Imm(1), R(Reg(255))}, Ctrl: ctrl, Line: 4},
		/* 5 */ {Op: OpISETP, Mods: []string{"LT", "AND"}, Dst: []Operand{P(0), P(PT)},
			Src: []Operand{R(0), Const(0, 0x160), P(PT)}, Ctrl: ctrl, Line: 4},
		/* 6 */ {Op: OpBRA, Pred: 0, Target: 2 * InstBytes, Ctrl: ctrl, Line: 4},
		/* 7 */ {Op: OpSTG, Mods: []string{"E", "SYS"}, Dst: []Operand{Mem(8, 0)}, Src: []Operand{R(6)}, Ctrl: ctrl, Line: 5},
		/* 8 */ {Op: OpEXIT, Ctrl: ctrl, Line: 6},
	}
	for i := range k.Insts {
		if k.Insts[i].Pred == 0 && k.Insts[i].Op != OpBRA {
			k.Insts[i].Pred = PT
		}
	}
	k.RenumberPCs()
	return k
}

// diamondKernel builds an if/else diamond:
//
//	isetp ; @!P0 bra else ; then: ... bra join ; else: ... ; join: exit
func diamondKernel() *Kernel {
	k := &Kernel{Name: "_Zdiamond", Arch: "sm_70", NumRegs: 16, SourceFile: "d.cu"}
	ctrl := DefaultCtrl()
	k.Insts = []Inst{
		/* 0 */ {Op: OpISETP, Mods: []string{"LT", "AND"}, Dst: []Operand{P(0), P(PT)},
			Src: []Operand{R(0), Imm(10), P(PT)}, Ctrl: ctrl, Line: 1},
		/* 1 */ {Op: OpBRA, Pred: 0, PredNeg: true, Target: 4 * InstBytes, Ctrl: ctrl, Line: 1},
		/* 2 */ {Op: OpMOV, Dst: []Operand{R(1)}, Src: []Operand{Imm(1)}, Ctrl: ctrl, Line: 2},
		/* 3 */ {Op: OpBRA, Target: 5 * InstBytes, Ctrl: ctrl, Line: 2},
		/* 4 */ {Op: OpMOV, Dst: []Operand{R(1)}, Src: []Operand{Imm(2)}, Ctrl: ctrl, Line: 3},
		/* 5 */ {Op: OpEXIT, Ctrl: ctrl, Line: 4},
	}
	for i := range k.Insts {
		if k.Insts[i].Pred == 0 && k.Insts[i].Op != OpBRA {
			k.Insts[i].Pred = PT
		}
	}
	// Instruction 1 is a conditional branch and must keep Pred=P0.
	k.Insts[1].Pred = 0
	k.RenumberPCs()
	return k
}

func TestCFGLoop(t *testing.T) {
	k := loopKernel()
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("BuildCFG: %v", err)
	}
	// Blocks: [0,2) preheader, [2,7) loop, [7,9) tail.
	if len(cfg.Blocks) != 3 {
		t.Fatalf("got %d blocks, want 3: %+v", len(cfg.Blocks), cfg.Blocks)
	}
	if len(cfg.Loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(cfg.Loops))
	}
	loop := cfg.Loops[0]
	if cfg.Blocks[loop.Header].Start != 2 {
		t.Errorf("loop header starts at inst %d, want 2", cfg.Blocks[loop.Header].Start)
	}
	for i := 2; i <= 6; i++ {
		if !cfg.InLoop(i) {
			t.Errorf("inst %d should be in loop", i)
		}
	}
	for _, i := range []int{0, 1, 7, 8} {
		if cfg.InLoop(i) {
			t.Errorf("inst %d should not be in loop", i)
		}
	}
}

func TestCFGDiamondPostDominators(t *testing.T) {
	k := diamondKernel()
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("BuildCFG: %v", err)
	}
	if len(cfg.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(cfg.Blocks))
	}
	// The branch at instruction 1 reconverges at the join block (inst 5).
	pc, ok := cfg.IPDomPC(1)
	if !ok {
		t.Fatal("IPDomPC: branch block has no post-dominator")
	}
	if pc != 5*InstBytes {
		t.Errorf("IPDomPC = %#x, want %#x", pc, uint64(5*InstBytes))
	}
	if len(cfg.Loops) != 0 {
		t.Errorf("diamond should have no loops, got %d", len(cfg.Loops))
	}
	// Straight-line blocks know their containing block.
	if cfg.blockOf[0] != 0 || cfg.blockOf[5] != 3 {
		t.Errorf("blockOf wrong: %d %d", cfg.blockOf[0], cfg.blockOf[5])
	}
}

func TestCFGBadBranch(t *testing.T) {
	k := loopKernel()
	k.Insts[6].Target = 1 << 20
	if _, err := BuildCFG(k); err == nil {
		t.Error("BuildCFG accepted out-of-range branch target")
	}
}

// liveOut solves the kernel's register liveness as ComputeLiveness does
// and reports whether register r is live after each instruction.
func liveOut(t *testing.T, k *Kernel) (*CFG, func(r Reg, i int) bool) {
	t.Helper()
	cfg, err := BuildCFG(k)
	if err != nil {
		t.Fatalf("BuildCFG: %v", err)
	}
	out := LiveOut(len(k.Insts), NumArchRegs, cfg.succs, regTransfer(k))
	return cfg, func(r Reg, i int) bool { return out[i][r/64]>>(r%64)&1 != 0 }
}

func TestLivenessLoop(t *testing.T) {
	k := loopKernel()
	cfg, live := liveOut(t, k)
	lv := ComputeLiveness(cfg)

	// R6 (the accumulator) is live across the loop: after the FFMA at
	// inst 3 it must be live (used by next iteration and the STG).
	if !live(6, 3) {
		t.Error("accumulator R6 should be live after inst 3")
	}
	// The loaded value R4 dies after its single use in inst 3.
	if live(4, 3) {
		t.Error("R4 should be dead after its last use at inst 3")
	}
	// The address pair R2,R3 is live inside the loop (used by the LDG each
	// iteration via the back edge).
	if !live(2, 3) || !live(3, 3) {
		t.Error("address pair R2,R3 should be live inside the loop")
	}
	// Pressure is positive inside the loop and bounded by NumRegs.
	max, at := lv.MaxPressure()
	if max <= 0 || max > k.NumRegs {
		t.Errorf("MaxPressure = %d at %d", max, at)
	}
	// The LDG defines a new value: it should report extra registers > 0
	// (R4 becomes live).
	if lv.ExtraRegs(2) < 1 {
		t.Errorf("ExtraRegs(LDG) = %d, want >= 1", lv.ExtraRegs(2))
	}
}

// TestGuardedExitFallsThrough: nvcc opens most kernels with a bounds
// check, @P0 EXIT. The threads that stay run on, so the CFG, its loops
// and liveness continue past it (Succs), as codegen's liveness does.
func TestGuardedExitFallsThrough(t *testing.T) {
	k := &Kernel{Name: "_Zbounds", Arch: "sm_70", NumRegs: 8}
	k.Insts = []Inst{
		/* 0 */ {Pred: PT, Op: OpS2R, Dst: []Operand{R(0)}, Src: []Operand{SR(SRTidX)}},
		/* 1 */ {Pred: PT, Op: OpISETP, Mods: []string{"GE", "AND"}, Dst: []Operand{P(0), P(PT)},
			Src: []Operand{R(0), Const(0, ParamBase), P(PT)}},
		/* 2 */ {Pred: 0, Op: OpEXIT},
		/* 3 */ {Pred: PT, Op: OpMOV, Dst: []Operand{R(2)}, Src: []Operand{Imm(0)}},
		// Loop header: leave when R2 reaches 256.
		/* 4 */ {Pred: PT, Op: OpISETP, Mods: []string{"GE", "AND"}, Dst: []Operand{P(1), P(PT)},
			Src: []Operand{R(2), Imm(256), P(PT)}},
		/* 5 */ {Pred: 1, Op: OpBRA, Target: 8 * InstBytes},
		// Loop body: reads R0, then the back edge.
		/* 6 */ {Pred: PT, Op: OpIADD3, Dst: []Operand{R(2)}, Src: []Operand{R(2), R(0), R(RZ)}},
		/* 7 */ {Pred: PT, Op: OpBRA, Target: 4 * InstBytes},
		/* 8 */ {Pred: PT, Op: OpEXIT},
	}
	k.RenumberPCs()
	for i := range k.Insts {
		k.Insts[i].Ctrl = DefaultCtrl()
	}
	cfg, live := liveOut(t, k)
	if len(cfg.Loops) != 1 {
		t.Fatalf("got %d loops, want 1 (the header at inst 4)", len(cfg.Loops))
	}
	for i := 4; i <= 7; i++ {
		if !cfg.InLoop(i) {
			t.Errorf("inst %d should be in the loop", i)
		}
	}
	if !live(0, 2) {
		t.Error("R0 is read in the loop, so it is live after the guarded EXIT")
	}
	if p := ComputeLiveness(cfg).PressureAt(2); p < 1 {
		t.Errorf("pressure after the guarded EXIT = %d, want at least 1 (R0)", p)
	}
}

func TestDefUse(t *testing.T) {
	k := loopKernel()
	du := ComputeDefUse(k)

	// R6 is defined at insts 1 (MOV) and 3 (FFMA).
	if len(du.Defs[6]) != 2 {
		t.Errorf("Defs[R6] = %v, want 2 defs", du.Defs[6])
	}
	// Last def of R6 before the STG at inst 7 is the FFMA at inst 3.
	if got := du.LastDefBefore(6, 7); got != 3 {
		t.Errorf("LastDefBefore(R6, 7) = %d, want 3", got)
	}
	if got := du.LastDefBefore(6, 2); got != 1 {
		t.Errorf("LastDefBefore(R6, 2) = %d, want 1", got)
	}
	if got := du.LastDefBefore(99, 5); got != -1 {
		t.Errorf("LastDefBefore(unwritten reg) = %d, want -1", got)
	}

	// Pointer R2 (the LDG at inst 2) is only loaded through; pointer R8
	// (the STG at inst 7) is stored through.
	if du.PointerStoredThroughAt(2, 2) {
		t.Error("R2 pair should not be stored through")
	}
	if !du.PointerStoredThroughAt(8, 7) {
		t.Error("R8 pair should be stored through")
	}

	// R4 (loaded at inst 2) feeds one arithmetic instruction (the FFMA
	// reads it twice, but instruction-wise it is one arith user;
	// ArithUseCountAt counts reads).
	if got := du.ArithUseCountAt(4, 2); got != 2 {
		t.Errorf("ArithUseCountAt(R4, 2) = %d, want 2 (two reads by FFMA)", got)
	}
	if len(du.Uses[4]) != 2 {
		t.Errorf("Uses[R4] = %v", du.Uses[4])
	}
	if du.ArithUseCountAt(RZ, 0) != 0 {
		t.Error("RZ must be inert in def-use queries")
	}
}
