package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// Mixbench (§5.1): the mixed-operational-intensity benchmark_func kernel.
// Every compute iteration re-reads GRANULARITY elements per thread from
// global memory and applies a multiply-add. The naive variant issues
// GRANULARITY scalar 32-bit (or 64-bit for double) loads from adjacent
// addresses — exactly the §4.1 pattern GPUscout flags — and the "vec"
// variant applies the paper's fix: 128-bit vectorized loads
// (reinterpret_cast<float4*>, Listing 2).

const (
	mixGranularity = 8   // elements per thread, divisible by 4 (§5.1)
	mixBlock       = 256 // threads per block
	mixBlocks      = 640 // grid blocks (8 per SM: a fully occupied V100)
)

var mixbenchSource = []string{
	/* 1 */ `#define GRANULARITY 8`,
	/* 2 */ `__global__ void benchmark_func(T seed, T* g_data) {`,
	/* 3 */ `  const int gid = blockIdx.x * blockDim.x + threadIdx.x;`,
	/* 4 */ `  T tmps[GRANULARITY];`,
	/* 5 */ `  for (int i = 0; i < compute_iterations; i++) {`,
	/* 6 */ `    for (int j = 0; j < GRANULARITY; j++) {`,
	/* 7 */ `      tmps[j] = g_data[gid * GRANULARITY + j];`,
	/* 8 */ `      tmps[j] = mad(tmps[j], tmps[j], seed);`,
	/* 9 */ `    }`,
	/* 10 */ `  }`,
	/* 11 */ `  T sum = (T)0;`,
	/* 12 */ `  for (int j = 0; j < GRANULARITY; j++) sum += tmps[j];`,
	/* 13 */ `  g_data[gid * GRANULARITY] = sum;`,
	/* 14 */ `}`,
}

var mixbenchScale = scaleRule{means: "compute iterations", def: 96, multiple: 1}

// mixTypes has one row per datatype: the mangled-name suffix, the element
// size, the builder calls for mad and sum, and the launch.
var mixTypes = map[string]struct {
	mangled string
	elem    int
	fma     func(b *kasm.Builder, a, c, d kasm.VOperand) kasm.VReg
	fmaTo   func(b *kasm.Builder, dst, a, c, d kasm.VOperand)
	add     func(b *kasm.Builder, a, c kasm.VOperand) kasm.VReg
	addTo   func(b *kasm.Builder, dst, a, c kasm.VOperand)
	launch  launch
}{
	"sp": {"f", 4, (*kasm.Builder).FFma, (*kasm.Builder).FFmaTo, (*kasm.Builder).FAdd, (*kasm.Builder).FAddTo,
		mixLaunch(float32(0.01), uint64(math.Float32bits(0.01)), mixFloat[float32], 1e-5, (*sim.Device).ReadF32)},
	"dp": {"d", 8, (*kasm.Builder).DFma, (*kasm.Builder).DFmaTo, (*kasm.Builder).DAdd, (*kasm.Builder).DAddTo,
		mixLaunch(0.01, math.Float64bits(0.01), mixFloat[float64], 1e-12, (*sim.Device).ReadF64)},
	"int": {"i", 4, (*kasm.Builder).IMad, (*kasm.Builder).IMadTo, (*kasm.Builder).IAdd, (*kasm.Builder).IAddTo,
		mixLaunch(int32(3), 3, mixInt, 0, (*sim.Device).ReadI32)},
}

// mixbench builds one variant ("<type>_naive" or "<type>_vec4", the
// latter with the Listing-2 float4/double4/int4 modification).
func mixbench(name, variant string, computeIterations int, arch gpu.Arch) (*Workload, error) {
	tag, loads, _ := strings.Cut(variant, "_")
	t, vectorized := mixTypes[tag], loads == "vec4"
	elem := t.elem
	b := kasm.NewBuilder("_Z14benchmark_func"+t.mangled+"PS_", arch.SM, "mixbench.cu")
	b.SetSource(mixbenchSource)
	b.NumParams(2)

	// gid = blockIdx.x * blockDim.x + threadIdx.x
	b.Line(3)
	tid := b.TidX()
	ctaid := b.CtaidX()
	ntid := b.NTidX()
	gid := b.IMad(kasm.VR(ctaid), kasm.VR(ntid), kasm.VR(tid))
	gdata := b.ParamPtr(1)
	off := b.IMul(kasm.VR(gid), kasm.VImm(int64(mixGranularity*elem)))
	base := b.IMadWide(kasm.VR(off), kasm.VImm(1), gdata)

	// seed in a register (pair for DP).
	var seed kasm.VReg
	if elem == 8 {
		seed = b.ParamF64(0)
	} else {
		seed = b.Param32(0)
	}

	// Loop header.
	b.Line(5)
	i := b.MovImm(0)

	// elems are the per-thread values after the loop body: one vreg per
	// element (naive), or the elements of the 128-bit quads (vec4; a
	// double takes two 32-bit slots).
	var elems []kasm.VOperand
	b.LabelName("iter_loop")
	if !vectorized {
		for j := 0; j < mixGranularity; j++ {
			b.Line(7)
			v := b.Ldg(base, int64(j*elem), elem, false)
			b.Line(8)
			elems = append(elems, kasm.VR(t.fma(b, kasm.VR(v), kasm.VR(v), kasm.VR(seed))))
		}
	} else {
		for v := 0; v < mixGranularity*elem/16; v++ {
			b.Line(7)
			q := b.Ldg(base, int64(v*16), 16, false)
			b.Line(8)
			for e := 0; e < 4; e += elem / 4 {
				d := kasm.VRElem(q, e)
				t.fmaTo(b, d, d, d, kasm.VR(seed))
				elems = append(elems, d)
			}
		}
	}
	b.Line(5)
	loopWhileLess(b, i, 1, kasm.VImm(int64(computeIterations)), "iter_loop")

	// Reduce and store.
	b.Line(12)
	sum := t.add(b, elems[0], elems[1])
	for _, e := range elems[2:] {
		t.addTo(b, kasm.VR(sum), kasm.VR(sum), e)
	}
	b.Line(13)
	b.Stg(base, 0, sum, elem)
	b.Exit()

	desc := fmt.Sprintf("mixbench %s MAD kernel (%s loads, %d iterations)", tag, loads, computeIterations)
	return compile(b, codegen.Options{Arch: arch}, name, desc, t.launch)
}

// The data patterns, as functions of the element index.
func mixFloat[T float32 | float64](idx int) T { return T(idx%17) * 0.125 }

func mixInt(idx int) int32 { return int32(idx % 13) }

// mixLaunch is the launch for one datatype: the data pattern fill,
// every thread's sum checked against the host's within tol (0: exactly).
func mixLaunch[T float32 | float64 | int32](seed T, seedBits uint64, fill func(int) T, tol float64,
	read func(*sim.Device, sim.Buffer, int) ([]T, error)) launch {
	const threads = mixBlock * mixBlocks
	return launch{
		grid:  sim.D1(mixBlocks),
		block: sim.D1(mixBlock),
		bufs:  []buffer{{threads * mixGranularity * binary.Size(seed), fill}},
		params: func(bufs []sim.Buffer) []uint64 {
			return []uint64{seedBits, bufs[0].Addr}
		},
		check: func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error {
			// Block by block, and only the blocks SM sampling ran: reading
			// the whole buffer back is a 5 MB copy for the 2.5 % of it a
			// two-SM sample wrote.
			const perBlock = mixBlock * mixGranularity
			size := perBlock * binary.Size(seed)
			for blk := 0; blk < mixBlocks; blk++ {
				if !res.BlockRan(blk) {
					continue
				}
				got, err := read(dev, sim.Buffer{Addr: bufs[0].Addr + uint64(blk*size), Size: size}, perBlock)
				if err != nil {
					return err
				}
				for base := 0; base < perBlock; base += mixGranularity {
					first := blk*perBlock + base
					var want T
					for j := first; j < first+mixGranularity; j++ {
						want += fill(j)*fill(j) + seed
					}
					if g := got[base]; !almostEqual(float64(g), float64(want), tol) {
						return fmt.Errorf("thread %d: sum = %v, want %v", first/mixGranularity, g, want)
					}
				}
			}
			return nil
		},
	}
}
