package kasm

import (
	"strings"
	"testing"

	"gpuscout/internal/sass"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("_Zk", "sm_70", "k.cu")
	b.NumParams(2)
	b.SetSource([]string{"line one", "line two"})
	b.Line(1)
	tid := b.TidX()
	in := b.ParamPtr(0)
	v := b.Ldg(in, 8, 4, false)
	b.Line(2)
	w := b.FFma(VR(v), VR(v), VR(tid))
	out := b.ParamPtr(1)
	b.Stg(out, 0, w, 4)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if p.NumParams != 2 || p.ConstBytes() != sass.ParamBase+16 {
		t.Errorf("params: %d, const bytes %d", p.NumParams, p.ConstBytes())
	}
	if p.WidthOf(in) != 2 || p.WidthOf(v) != 1 {
		t.Error("widths wrong")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Lines attributed.
	if p.Insts[0].Line != 1 {
		t.Errorf("first inst line = %d", p.Insts[0].Line)
	}
	if _, err := b.Build(); err == nil {
		t.Error("second Build call accepted")
	}
}

func TestBuilderPanicsOnMisuse(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Ldg with non-pair base", func() {
		b := NewBuilder("x", "sm_70", "x.cu")
		r := b.MovImm(0)
		b.Ldg(r, 0, 4, false)
	})
	expectPanic("Ldg bad width", func() {
		b := NewBuilder("x", "sm_70", "x.cu")
		p := b.ParamPtr(0)
		b.Ldg(p, 0, 12, false)
	})
	expectPanic("duplicate label", func() {
		b := NewBuilder("x", "sm_70", "x.cu")
		b.LabelName("l")
		b.LabelName("l")
	})
	expectPanic("predicate pool exhaustion", func() {
		b := NewBuilder("x", "sm_70", "x.cu")
		for i := 0; i < 10; i++ {
			b.AllocPred()
		}
	})
	expectPanic("LdgTo width mismatch", func() {
		b := NewBuilder("x", "sm_70", "x.cu")
		p := b.ParamPtr(0)
		d := b.MovImm(0)
		b.LdgTo(d, p, 0, 16, false)
	})
	expectPanic("DAdd on scalars", func() {
		b := NewBuilder("x", "sm_70", "x.cu")
		r := b.MovImm(0)
		b.DAdd(VR(r), VR(r))
	})
}

func TestValidateCatches(t *testing.T) {
	// Undefined label.
	b := NewBuilder("x", "sm_70", "x.cu")
	b.Bra("nowhere")
	b.Exit()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("undefined label not caught: %v", err)
	}
	// Missing EXIT.
	b2 := NewBuilder("y", "sm_70", "y.cu")
	b2.MovImm(1)
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "EXIT") {
		t.Errorf("missing EXIT not caught: %v", err)
	}
	// Empty program.
	b3 := NewBuilder("z", "sm_70", "z.cu")
	if _, err := b3.Build(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestWithPredGuardsEverything(t *testing.T) {
	b := NewBuilder("x", "sm_70", "x.cu")
	pr := b.AllocPred()
	v := b.MovImm(0)
	n0 := len(programOf(b).Insts)
	b.WithPred(pr, true, func() {
		b.MovTo(VR(v), VImm(1))
		b.IAddTo(VR(v), VR(v), VImm(2))
	})
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := n0; i < n0+2; i++ {
		if p.Insts[i].Pred != pr || !p.Insts[i].PredNeg {
			t.Errorf("inst %d not guarded: %+v", i, p.Insts[i])
		}
	}
	if p.Insts[len(p.Insts)-1].Pred != sass.PT {
		t.Error("EXIT unexpectedly guarded")
	}
}

// programOf peeks at the builder's program for test assertions.
func programOf(b *Builder) *Program { return b.p }

func TestParamConstLayout(t *testing.T) {
	if o := ParamConst(0, 0); o.Imm != sass.ParamBase {
		t.Errorf("param 0 at %#x", o.Imm)
	}
	if o := ParamConst(2, 1); o.Imm != sass.ParamBase+20 {
		t.Errorf("param 2 high word at %#x", o.Imm)
	}
}

func TestAllocShared(t *testing.T) {
	b := NewBuilder("x", "sm_70", "x.cu")
	o1 := b.AllocShared(100)
	o2 := b.AllocShared(16)
	if o1 != 0 || o2 != 112 { // 100 rounded to 112
		t.Errorf("shared offsets %d, %d", o1, o2)
	}
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.ShmemBytes != 128 {
		t.Errorf("ShmemBytes = %d", p.ShmemBytes)
	}
}
