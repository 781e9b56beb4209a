package workloads

import (
	"fmt"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// Reduction sums an array, in two styles around the §4.4 atomics advice:
//
//	atomic — every thread issues a global atomicAdd: the device-wide
//	         serialization GPUscout's detector warns about
//	shfl   — warp-level butterfly reduction with __shfl_xor_sync, then a
//	         single global atomic per warp: 32x fewer atomics
const (
	redBlock  = 256
	redBlocks = 640
)

var redAtomicSource = []string{
	/* 1 */ `// sum reduction with per-thread global atomics`,
	/* 2 */ `__global__ void reduce(const float* in, float* sum) {`,
	/* 3 */ `  int gid = blockIdx.x * blockDim.x + threadIdx.x;`,
	/* 4 */ `  atomicAdd(sum, in[gid]);`,
	/* 5 */ `}`,
}

var redShflSource = []string{
	/* 1 */ `// sum reduction: warp shuffle butterfly, one atomic per warp`,
	/* 2 */ `__global__ void reduce_w(const float* in, float* sum) {`,
	/* 3 */ `  int gid = blockIdx.x * blockDim.x + threadIdx.x;`,
	/* 4 */ `  float v = in[gid];`,
	/* 5 */ `  for (int m = 16; m > 0; m >>= 1)`,
	/* 6 */ `    v += __shfl_xor_sync(0xffffffff, v, m);`,
	/* 7 */ `  if ((threadIdx.x & 31) == 0) atomicAdd(sum, v);`,
	/* 8 */ `}`,
}

var reductionScale = scaleRule{means: "ignored: the array is fixed at one element per thread", multiple: 1, fixed: true}

// reduction builds one variant.
func reduction(name, variant string, _ int, arch gpu.Arch) (*Workload, error) {
	shfl := variant == "shfl"
	mangled, file, source := "_Z6reducePKfPf", "reduce.cu", redAtomicSource
	if shfl {
		mangled, file, source = "_Z8reduce_wPKfPf", "reduce_w.cu", redShflSource
	}
	b := kasm.NewBuilder(mangled, arch.SM, file)
	b.SetSource(source)
	b.NumParams(2)

	b.Line(3)
	tid := b.TidX()
	ctaid := b.CtaidX()
	ntid := b.NTidX()
	gid := b.IMad(kasm.VR(ctaid), kasm.VR(ntid), kasm.VR(tid))
	in := b.ParamPtr(0)
	sum := b.ParamPtr(1)
	b.Line(4)
	addr := elemAddr(b, gid, in)
	v := b.Ldg(addr, 0, 4, false)

	if !shfl {
		b.RedAddF32(sum, 0, v)
	} else {
		b.Line(6)
		// Butterfly: masks 16, 8, 4, 2, 1 (unrolled, like nvcc).
		for m := int64(16); m > 0; m >>= 1 {
			o := b.ShflBfly(kasm.VR(v), m)
			b.FAddTo(kasm.VR(v), kasm.VR(v), kasm.VR(o))
		}
		b.Line(7)
		lane := b.And(kasm.VR(tid), kasm.VImm(31))
		p := b.ISetp("EQ", kasm.VR(lane), kasm.VImm(0))
		b.WithPred(p, false, func() { b.RedAddF32(sum, 0, v) })
		b.FreePred(p)
	}
	b.Exit()

	const threads = redBlock * redBlocks
	return compile(b, codegen.Options{Arch: arch}, name, fmt.Sprintf("array sum reduction, %s variant", variant), launch{
		grid:  sim.D1(redBlocks),
		block: sim.D1(redBlock),
		bufs:  []buffer{{4 * threads, redInput}, {16, nil}}, // in, sum
		params: func(bufs []sim.Buffer) []uint64 {
			return []uint64{bufs[0].Addr, bufs[1].Addr}
		},
		check: func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error {
			got, err := dev.ReadF32(bufs[1], 1)
			if err != nil {
				return err
			}
			var want float32
			for _, blk := range res.RanBlocks(redBlocks) {
				for th := blk * redBlock; th < (blk+1)*redBlock; th++ {
					want += redInput(th)
				}
			}
			if got[0] != want {
				return fmt.Errorf("sum = %v, want %v", got[0], want)
			}
			return nil
		},
	})
}

func redInput(i int) float32 { return float32(i % 8) } // small ints: fp addition is exact
