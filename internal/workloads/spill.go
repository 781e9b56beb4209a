package workloads

import (
	"fmt"
	"math"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// SpillPressure is the Fig. 2 demonstration workload: a kernel whose
// working set of live values exceeds the register budget (compiled with a
// -maxrregcount analogue), so the register allocator spills to local
// memory — producing the STL/LDL instructions, the extra L1/L2 traffic,
// and the lg_throttle stalls that §4.2 detects.

const (
	spillValues = 24  // live float accumulators
	spillBudget = 16  // register budget forcing spills
	spillIters  = 32  // loop iterations touching every accumulator
	spillBlock  = 128 // threads per block
	spillBlocks = 160 // grid blocks (2 per SM)
)

var spillSource = []string{
	/* 1 */ `// register-pressure demo: too many live accumulators`,
	/* 2 */ `__global__ void pressure(const float* in, float* out, int iters) {`,
	/* 3 */ `  int gid = blockIdx.x * blockDim.x + threadIdx.x;`,
	/* 4 */ `  float acc[24];  // lives in registers ... until it does not`,
	/* 5 */ `  for (int j = 0; j < 24; j++) acc[j] = in[gid*24 + j];`,
	/* 6 */ `  for (int i = 0; i < iters; i++)`,
	/* 7 */ `    for (int j = 0; j < 24; j++)`,
	/* 8 */ `      acc[j] = acc[j] * acc[(j+1) % 24] + 0.1f;`,
	/* 9 */ `  float s = 0; for (int j = 0; j < 24; j++) s += acc[j];`,
	/* 10 */ `  out[gid] = s;`,
	/* 11 */ `}`,
}

var spillScale = scaleRule{means: "loop iterations", def: spillIters, multiple: 1}

// spill builds the kernel under the spillBudget register cap ("pressure")
// or without one ("relief"): the §4.2 fix (raise -maxrregcount / drop the
// launch-bounds constraint), so the advisor can re-execute the
// recommendation and measure the spill traffic disappearing.
func spill(name, variant string, iters int, arch gpu.Arch) (*Workload, error) {
	maxRegs := 0
	desc := "register-pressure kernel compiled without a register cap (no spills)"
	if variant == "pressure" {
		maxRegs = spillBudget
		desc = fmt.Sprintf("register-pressure kernel compiled with maxrregcount=%d (forces spills)", maxRegs)
	}
	b := kasm.NewBuilder("_Z8pressurePKfPfi", arch.SM, "pressure.cu")
	b.SetSource(spillSource)
	b.NumParams(3)

	b.Line(3)
	tid := b.TidX()
	ctaid := b.CtaidX()
	ntid := b.NTidX()
	gid := b.IMad(kasm.VR(ctaid), kasm.VR(ntid), kasm.VR(tid))
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)

	b.Line(5)
	off := b.IMul(kasm.VR(gid), kasm.VImm(spillValues*4))
	base := b.IMadWide(kasm.VR(off), kasm.VImm(1), in)
	accs := make([]kasm.VReg, spillValues)
	for j := 0; j < spillValues; j++ {
		accs[j] = b.Ldg(base, int64(4*j), 4, false)
	}

	b.Line(6)
	i := b.MovImm(0)
	half := b.MovImmF32(0.1)
	b.LabelName("iters")
	b.Line(8)
	for j := 0; j < spillValues; j++ {
		b.FFmaTo(kasm.VR(accs[j]), kasm.VR(accs[j]), kasm.VR(accs[(j+1)%spillValues]), kasm.VR(half))
	}
	b.Line(6)
	loopWhileLess(b, i, 1, kasm.VImm(int64(iters)), "iters")

	b.Line(9)
	sum := b.FAdd(kasm.VR(accs[0]), kasm.VR(accs[1]))
	for j := 2; j < spillValues; j++ {
		b.FAddTo(kasm.VR(sum), kasm.VR(sum), kasm.VR(accs[j]))
	}
	b.Line(10)
	oAddr := elemAddr(b, gid, out)
	b.Stg(oAddr, 0, sum, 4)
	b.Exit()

	const threads = spillBlock * spillBlocks
	return compile(b, codegen.Options{MaxRegs: maxRegs, Arch: arch}, name, desc, launch{
		grid:  sim.D1(spillBlocks),
		block: sim.D1(spillBlock),
		bufs:  []buffer{{4 * threads * spillValues, spillInput}, {4 * threads, nil}}, // in, out
		params: func(bufs []sim.Buffer) []uint64 {
			return []uint64{bufs[0].Addr, bufs[1].Addr, uint64(uint32(iters))}
		},
		check: func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error {
			got, err := dev.ReadF32(bufs[1], threads)
			if err != nil {
				return err
			}
			var acc [spillValues]float32
			for th := 0; th < threads; th++ {
				if !res.BlockRan(th / spillBlock) {
					continue
				}
				for j := range acc {
					acc[j] = spillInput(th*spillValues + j)
				}
				for it := 0; it < iters; it++ {
					for j := 0; j < spillValues; j++ {
						acc[j] = acc[j]*acc[(j+1)%spillValues] + 0.1
					}
				}
				var want float32
				for j := 0; j < spillValues; j++ {
					want += acc[j]
				}
				if g := got[th]; !almostEqual(float64(g), float64(want), 1e-4) &&
					!(math.IsInf(float64(want), 0) && math.IsInf(float64(g), 0)) {
					return fmt.Errorf("thread %d: %v, want %v", th, g, want)
				}
			}
			return nil
		},
	})
}

func spillInput(idx int) float32 { return 0.1 + float32(idx%5)*0.08 }
