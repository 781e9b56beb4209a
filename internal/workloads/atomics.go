package workloads

import (
	"fmt"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// Histogram exercises the §4.4 atomics analysis: each thread walks its
// slice of the input and bumps a counter bin per element.
//
//	global — atomic adds straight to the global bins inside the loop:
//	         the kernel-wide serialization GPUscout warns about
//	shared — per-block bins in shared memory (block-level serialization),
//	         merged into the global bins once at the end
const (
	histBins   = 64
	histPerThr = 16 // elements per thread
	histBlock  = 256
	histBlocks = 640
)

var histGlobalSource = []string{
	/* 1 */ `// histogram with global atomics`,
	/* 2 */ `__global__ void hist(const int* in, float* bins, int perThread) {`,
	/* 3 */ `  int gid = blockIdx.x * blockDim.x + threadIdx.x;`,
	/* 4 */ `  for (int i = 0; i < perThread; i++) {`,
	/* 5 */ `    int v = in[i*gridSize + gid];  // coalesced`,
	/* 6 */ `    atomicAdd(&bins[v & 63], 1.0f);`,
	/* 7 */ `  }`,
	/* 8 */ `}`,
}

var histSharedSource = []string{
	/* 1 */ `// histogram with shared-memory atomics`,
	/* 2 */ `__global__ void hist_s(const int* in, float* bins, int perThread) {`,
	/* 3 */ `  __shared__ float sbins[64];`,
	/* 4 */ `  int tid = threadIdx.x, gid = blockIdx.x * blockDim.x + tid;`,
	/* 5 */ `  if (tid < 64) sbins[tid] = 0.0f;`,
	/* 6 */ `  __syncthreads();`,
	/* 7 */ `  for (int i = 0; i < perThread; i++) {`,
	/* 8 */ `    int v = in[i*gridSize + gid];  // coalesced`,
	/* 9 */ `    atomicAdd(&sbins[v & 63], 1.0f);`,
	/* 10 */ `  }`,
	/* 11 */ `  __syncthreads();`,
	/* 12 */ `  if (tid < 64) atomicAdd(&bins[tid], sbins[tid]);`,
	/* 13 */ `}`,
}

var histogramScale = scaleRule{means: "elements per thread", def: histPerThr, multiple: 1}

// histogram builds one variant; shared is the optimized one.
func histogram(name, variant string, perThr int, arch gpu.Arch) (*Workload, error) {
	shared := variant == "shared"
	mangled, file, source := "_Z4histPKiPfi", "hist.cu", histGlobalSource
	if shared {
		mangled, file, source = "_Z6hist_sPKiPfi", "hist_s.cu", histSharedSource
	}
	b := kasm.NewBuilder(mangled, arch.SM, file)
	b.SetSource(source)
	b.NumParams(3)

	lineGid := 3
	if shared {
		lineGid = 4
	}
	b.Line(lineGid)
	tid := b.TidX()
	ctaid := b.CtaidX()
	ntid := b.NTidX()
	gid := b.IMad(kasm.VR(ctaid), kasm.VR(ntid), kasm.VR(tid))
	in := b.ParamPtr(0)
	bins := b.ParamPtr(1)
	one := b.MovImmF32(1)

	var sbins int64
	if shared {
		sbins = b.AllocShared(histBins * 4)
		b.Line(5)
		zero := b.MovImmF32(0)
		shOff := b.Shl(kasm.VR(tid), 2)
		pInit := b.ISetp("LT", kasm.VR(tid), kasm.VImm(histBins))
		b.WithPred(pInit, false, func() { b.Sts(shOff, sbins, zero, 4) })
		b.Line(6)
		b.Bar()
		b.FreePred(pInit)
	}

	b.Line(4)
	addr := elemAddr(b, gid, in)
	gridSize := b.IMul(kasm.VR(ntid), kasm.VR(b.NCtaidX()))
	stride := b.Shl(kasm.VR(gridSize), 2)
	i := b.MovImm(0)
	loopLine, atomLine := 5, 6
	if shared {
		loopLine, atomLine = 8, 9
	}
	b.LabelName("elems")
	b.Line(loopLine)
	v := b.Ldg(addr, 0, 4, false)
	bin := b.And(kasm.VR(v), kasm.VImm(histBins-1))
	binOff := b.Shl(kasm.VR(bin), 2)
	b.Line(atomLine)
	if shared {
		shAddr := b.IAdd(kasm.VR(binOff), kasm.VImm(0))
		b.AtomsAddF32(shAddr, sbins, one)
	} else {
		gAddr := b.IMadWide(kasm.VR(binOff), kasm.VImm(1), bins)
		b.RedAddF32(gAddr, 0, one)
	}
	b.Line(loopLine - 1)
	b.IAddTo(kasm.VRElem(addr, 0), kasm.VRElem(addr, 0), kasm.VR(stride))
	loopWhileLess(b, i, 1, kasm.VImm(int64(perThr)), "elems")

	if shared {
		b.Line(11)
		b.Bar()
		b.Line(12)
		shOff := b.Shl(kasm.VR(tid), 2)
		pm := b.ISetp("LT", kasm.VR(tid), kasm.VImm(histBins))
		sv := b.MovImmF32(0)
		b.WithPred(pm, false, func() { b.LdsTo(sv, shOff, sbins, 4) })
		gAddr := b.IMadWide(kasm.VR(shOff), kasm.VImm(1), bins)
		b.WithPred(pm, false, func() { b.RedAddF32(gAddr, 0, sv) })
		b.FreePred(pm)
	}
	b.Exit()

	const threads = histBlock * histBlocks
	desc := fmt.Sprintf("64-bin histogram with %s atomics, %d elements/thread", variant, perThr)
	return compile(b, codegen.Options{Arch: arch}, name, desc, launch{
		grid:  sim.D1(histBlocks),
		block: sim.D1(histBlock),
		bufs:  []buffer{{4 * threads * perThr, histInput}, {4 * histBins, nil}}, // in, bins
		params: func(bufs []sim.Buffer) []uint64 {
			return []uint64{bufs[0].Addr, bufs[1].Addr, uint64(uint32(perThr))}
		},
		check: func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error {
			got, err := dev.ReadF32(bufs[1], histBins)
			if err != nil {
				return err
			}
			want := make([]float32, histBins)
			for th := 0; th < threads; th++ {
				if !res.BlockRan(th / histBlock) {
					continue
				}
				for e := 0; e < perThr; e++ {
					want[histInput(e*threads+th)&(histBins-1)]++
				}
			}
			for bn := range want {
				if got[bn] != want[bn] {
					return fmt.Errorf("bin %d = %v, want %v", bn, got[bn], want[bn])
				}
			}
			return nil
		},
	})
}

func histInput(idx int) int32 { return int32((idx*7 + idx/3) % 251) }
