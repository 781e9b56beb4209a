package workloads

import (
	"fmt"
	"math"

	"gpuscout/internal/codegen"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// launch is what is particular to one workload's launch, as data: the
// geometry, the device buffers, and the two functions that need host
// code — how parameter words follow from buffer addresses, and the check
// of the results against the host reference.
type launch struct {
	grid, block sim.Dim3
	// bufs are the device buffers, in allocation order.
	bufs []buffer
	// tex, when non-zero, is the {width, height} of a 2-D float texture
	// bound over buffer 0.
	tex [2]int
	// params builds the kernel parameter words from the allocated buffers
	// (bufs[i] belongs to l.bufs[i]).
	params func(bufs []sim.Buffer) []uint64
	// check compares the device results with the host reference, which it
	// computes from the same fill functions. It sees the simulation result
	// so it can skip blocks SM sampling did not run (sim.Result.BlockRan).
	check checkFunc
}

// buffer is one device buffer: its size and its initial contents as a
// function of the element index — a func(int) float32, func(int) float64
// or func(int) int32, or nil for a buffer left as allocated (zero).
type buffer struct {
	bytes int
	fill  any
}

type checkFunc func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error

// generator is fill as a sim.Device.Fill word generator and its width.
func generator(fill any) (int, func(int) uint64, error) {
	switch f := fill.(type) {
	case func(int) float32:
		return 4, func(i int) uint64 { return uint64(math.Float32bits(f(i))) }, nil
	case func(int) float64:
		return 8, func(i int) uint64 { return math.Float64bits(f(i)) }, nil
	case func(int) int32:
		return 4, func(i int) uint64 { return uint64(uint32(f(i))) }, nil
	}
	return 0, nil, fmt.Errorf("unsupported fill %T", fill)
}

// compile lowers a family's finished kernel body and wraps it with its
// launch. It is the only place in the package that builds and compiles a
// program, allocates or fills device memory, binds a texture or
// assembles a LaunchSpec, and three conditions hold here for every
// workload:
//
//   - Buffers are allocated in the listed order and all before any fill:
//     their addresses are part of the device image the differential and
//     pinned tests compare.
//   - Contents are declared, never written: each fill becomes one
//     sim.Device.Fill, so a Prepare writes no input and backs no page, a
//     launch backs and fills the pages its sampled SMs touch, and a scale
//     past sim.MaxDeviceBytes fails at Alloc having built nothing.
//   - Everything else — generators, checks — is built once, here, and
//     every Prepare — a sweep's recording run, a Verify variant — starts
//     from the same image.
func compile(b *kasm.Builder, opts codegen.Options, name, description string, l launch) (*Workload, error) {
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	k, err := codegen.Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	widths := make([]int, len(l.bufs))
	gens := make([]func(int) uint64, len(l.bufs))
	for i, buf := range l.bufs {
		if buf.fill == nil {
			continue
		}
		if widths[i], gens[i], err = generator(buf.fill); err != nil {
			return nil, fmt.Errorf("workloads: %s: buffer %d: %w", name, i, err)
		}
	}
	prepare := func(dev *sim.Device) (*Run, error) {
		bufs := make([]sim.Buffer, len(l.bufs))
		for i, buf := range l.bufs {
			var err error
			if bufs[i], err = dev.Alloc(buf.bytes); err != nil {
				return nil, err
			}
		}
		for i, gen := range gens {
			if gen == nil {
				continue
			}
			if err := dev.Fill(bufs[i], widths[i], gen); err != nil {
				return nil, err
			}
		}
		if l.tex != [2]int{} {
			if _, err := dev.BindTexture2D(bufs[0], l.tex[0], l.tex[1]); err != nil {
				return nil, err
			}
		}
		return &Run{
			Spec: sim.LaunchSpec{Kernel: k, Grid: l.grid, Block: l.block, Params: l.params(bufs)},
			Verify: func(dev *sim.Device, res *sim.Result) error {
				return l.check(dev, bufs, res)
			},
		}, nil
	}
	return &Workload{Name: name, Description: description, Kernel: k, Prepare: prepare}, nil
}

// elemAddr emits the address of the 4-byte element idx of the array at
// ptr: ptr + (idx << 2).
func elemAddr(b *kasm.Builder, idx, ptr kasm.VReg) kasm.VReg {
	off := b.Shl(kasm.VR(idx), 2)
	return b.IMadWide(kasm.VR(off), kasm.VImm(1), ptr)
}

// loopWhileLess emits a loop tail: i += step, then back to label while
// i < bound.
func loopWhileLess(b *kasm.Builder, i kasm.VReg, step int64, bound kasm.VOperand, label string) {
	b.IAddTo(kasm.VR(i), kasm.VR(i), kasm.VImm(step))
	p := b.ISetp("LT", kasm.VR(i), bound)
	b.BraIf(p, false, label)
	b.FreePred(p)
}
