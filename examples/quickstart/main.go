// Quickstart: build a tiny kernel with the public builder API, run it on
// the simulated V100, and analyze it with GPUscout.
//
// The kernel mirrors this CUDA source (embedded below for line mapping):
//
//	__global__ void scale(const float* in, float* out, float f) {
//	    int i = blockIdx.x * blockDim.x + threadIdx.x;
//	    out[i] = in[i] * f;
//	}
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"gpuscout"
	"gpuscout/internal/kasm"
)

func main() {
	// 1. "Compile" the kernel (the nvcc stand-in): virtual registers in,
	//    allocated SASS out.
	b := gpuscout.NewKernelBuilder("_Z5scalePKfPff", "sm_70", "scale.cu")
	b.SetSource([]string{
		/* 1 */ `__global__ void scale(const float* in, float* out, float f) {`,
		/* 2 */ `    int i = blockIdx.x * blockDim.x + threadIdx.x;`,
		/* 3 */ `    out[i] = in[i] * f;`,
		/* 4 */ `}`,
	})
	b.NumParams(3)
	b.Line(2)
	tid := b.TidX()
	cta := b.CtaidX()
	ntid := b.NTidX()
	i := b.IMad(kasm.VR(cta), kasm.VR(ntid), kasm.VR(tid))
	b.Line(3)
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)
	f := b.Param32(2)
	off := b.Shl(kasm.VR(i), 2)
	src := b.IMadWide(kasm.VR(off), kasm.VImm(1), in)
	dst := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	v := b.Ldg(src, 0, 4, false)
	r := b.FMul(kasm.VR(v), kasm.VR(f))
	b.Stg(dst, 0, r, 4)
	b.Exit()

	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := gpuscout.CompileKernel(prog, gpuscout.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== disassembly ===")
	fmt.Println(gpuscout.PrintSASS(kernel))

	// 2. Run it on the simulated V100 (the cudaMalloc/cudaMemcpy dance).
	arch := gpuscout.V100()
	dev := gpuscout.NewDevice(arch)
	const n = 4096
	inBuf := dev.MustAlloc(4 * n)
	outBuf := dev.MustAlloc(4 * n)
	vals := make([]float32, n)
	for j := range vals {
		vals[j] = float32(j)
	}
	if err := dev.WriteF32(inBuf, vals); err != nil {
		log.Fatal(err)
	}
	spec := gpuscout.LaunchSpec{
		Kernel: kernel,
		Grid:   gpuscout.D1(n / 256),
		Block:  gpuscout.D1(256),
		Params: []uint64{inBuf.Addr, outBuf.Addr, uint64(math.Float32bits(2.5))},
	}
	res, err := gpuscout.Launch(dev, spec, gpuscout.SimConfig{SampleSMs: arch.NumSMs})
	if err != nil {
		log.Fatal(err)
	}
	got, err := dev.ReadF32(outBuf, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== run ===\nout[0..3] = %v (expect 0, 2.5, 5, 7.5)\n", got)
	fmt.Printf("%.0f cycles, achieved occupancy %.0f%%\n\n",
		res.Cycles, 100*res.AchievedOccupancy)

	// 3. Analyze with GPUscout: the full three-pillar workflow.
	rep, err := gpuscout.Analyze(context.Background(), arch, kernel,
		func(ctx context.Context, cfg gpuscout.SimConfig) (*gpuscout.SimResult, error) {
			d := gpuscout.NewDevice(arch)
			ib := d.MustAlloc(4 * n)
			ob := d.MustAlloc(4 * n)
			if err := d.WriteF32(ib, vals); err != nil {
				return nil, err
			}
			s := spec
			s.Params = []uint64{ib.Addr, ob.Addr, uint64(math.Float32bits(2.5))}
			return gpuscout.LaunchContext(ctx, d, s, cfg)
		},
		gpuscout.Options{Sim: gpuscout.SimConfig{SampleSMs: 4}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Render())
}
