package cupti

import (
	"math"
	"testing"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
	"gpuscout/internal/sim"
)

// sampleKernel builds and runs a small latency-bound kernel.
func sampleKernel(t *testing.T) (*sass.Kernel, *sim.Result) {
	t.Helper()
	b := kasm.NewBuilder("_Zsample", "sm_70", "s.cu")
	b.NumParams(2)
	b.Line(2)
	// One element per thread of the grid: the blocks run on separate SMs
	// at once, so indexing by threadIdx.x alone would race their stores.
	gid := b.IMad(kasm.VR(b.CtaidX()), kasm.VR(b.NTidX()), kasm.VR(b.TidX()))
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)
	off := b.Shl(kasm.VR(gid), 2)
	addr := b.IMadWide(kasm.VR(off), kasm.VImm(1), in)
	b.Line(3)
	v := b.Ldg(addr, 0, 4, false)
	b.Line(4)
	r := b.FMul(kasm.VR(v), kasm.VR(v))
	oaddr := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	b.Stg(oaddr, 0, r, 4)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k, err := codegen.Compile(p, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dev := sim.NewDevice(gpu.V100())
	inB := dev.MustAlloc(4 * 512)
	outB := dev.MustAlloc(4 * 512)
	res, err := sim.Launch(dev, sim.LaunchSpec{
		Kernel: k, Grid: sim.D1(4), Block: sim.D1(128),
		Params: []uint64{inB.Addr, outB.Addr},
	}, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return k, res
}

func TestCollectBasics(t *testing.T) {
	k, res := sampleKernel(t)
	r, err := Collect(k, res, Config{PeriodCycles: 512})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if r.PeriodCycles != 512 || r.Kernel.Stalled() <= 0 {
		t.Fatalf("empty report: %+v", r)
	}
	// Sample totals must match the stall integrals / period, both in the
	// kernel vector and summed over the per-PC vectors.
	var want, kernel, atPCs float64
	for i, arr := range res.Counters.PCStalls {
		at := r.AtPC(uint64(i) * sass.InstBytes)
		for s := sim.Stall(0); s < sim.NumStalls; s++ {
			want += arr[s]
			atPCs += at[s]
		}
	}
	want /= 512
	for s := sim.Stall(0); s < sim.NumStalls; s++ {
		kernel += r.Kernel[s]
	}
	if math.Abs(kernel-want) > 1e-9*want {
		t.Errorf("Kernel samples = %v, want %v", kernel, want)
	}
	if math.Abs(atPCs-want) > 1e-9*want {
		t.Errorf("samples summed over AtPC = %v, want %v", atPCs, want)
	}
	// The FMUL at line 4 consumes the load: long_scoreboard must appear.
	if r.AtLine(4)[sim.StallLongScoreboard] <= 0 {
		t.Error("no long_scoreboard at the consumer line")
	}
	// Line aggregation matches PC aggregation.
	var pcAgg sim.Stalls
	for _, pc := range k.PCsForLine(4) {
		at := r.AtPC(pc)
		for s := range at {
			pcAgg[s] += at[s]
		}
	}
	lineAgg := r.AtLine(4)
	for s := sim.Stall(0); s < sim.NumStalls; s++ {
		if math.Abs(pcAgg[s]-lineAgg[s]) > 1e-9 {
			t.Errorf("line aggregation mismatch for %v", s)
		}
	}
}

func TestDefaultPeriodAndTopStalls(t *testing.T) {
	k, res := sampleKernel(t)
	r, err := Collect(k, res, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.PeriodCycles != 2048 {
		t.Errorf("default period = %v", r.PeriodCycles)
	}
	// The top stalls at a PC exclude bookkeeping reasons and sort
	// descending.
	for i := range res.Counters.PCStalls {
		at := r.AtPC(uint64(i) * sass.InstBytes)
		top := at.Top(2)
		if len(top) > 2 {
			t.Fatalf("Top(2) returned %d entries", len(top))
		}
		for i := 1; i < len(top); i++ {
			if at[top[i]] > at[top[i-1]] {
				t.Error("top stalls not sorted")
			}
		}
		for _, s := range top {
			if s == sim.StallSelected || s == sim.StallNotSelected {
				t.Error("bookkeeping stall in top list")
			}
		}
	}
	if _, err := Collect(k, nil, Config{}); err == nil {
		t.Error("Collect accepted nil result")
	}
}

func TestCollectionCyclesGrowsWithKernel(t *testing.T) {
	k, res := sampleKernel(t)
	c1 := CollectionCycles(res)
	if c1 <= res.Cycles {
		t.Error("sampling overhead below bare kernel time")
	}
	big := *res
	big.Cycles = res.Cycles * 100
	if CollectionCycles(&big) <= c1 {
		t.Error("overhead not increasing with kernel duration")
	}
	_ = k
}
