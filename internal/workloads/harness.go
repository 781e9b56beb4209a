package workloads

import (
	"fmt"

	"gpuscout/internal/codegen"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sim"
)

// launch is what is particular to one workload's launch, as data: the
// geometry, the device buffers, and the two functions that need host
// code — how parameter words follow from buffer addresses, and the data
// pattern with its host reference.
type launch struct {
	grid, block sim.Dim3
	// sizes are the device buffers in bytes, in allocation order.
	sizes []int
	// tex, when non-zero, is the {width, height} of a 2-D float texture
	// bound over buffer 0.
	tex [2]int
	// params builds the kernel parameter words from the allocated buffers
	// (bufs[i] belongs to sizes[i]).
	params func(bufs []sim.Buffer) []uint64
	// host generates the input data and returns each buffer's initial
	// contents — a []float32, []float64 or []int32, or nil for a buffer
	// left as allocated (zero) — and the check of the device results
	// against the host reference. The check sees the simulation result
	// so it can skip blocks SM sampling did not run (sim.Result.BlockRan).
	host func() (contents []any, check checkFunc)
}

type checkFunc func(dev *sim.Device, bufs []sim.Buffer, res *sim.Result) error

// compile lowers a family's finished kernel body and wraps it with its
// launch. It is the only place in the package that builds and compiles a
// program, allocates or writes device memory, binds a texture or
// assembles a LaunchSpec, and three conditions hold here for every
// workload:
//
//   - Buffers are allocated in the listed order and all before any write:
//     their addresses are part of the device image the differential and
//     pinned tests compare.
//   - Device allocation precedes host data generation (l.host), so a scale
//     past sim.MaxDeviceBytes fails at Alloc before a host slice exists.
//   - Host data is produced per Prepare, never here: a build costs one
//     lowering and nothing else, and every Prepare — a sweep's recording
//     run, a Verify variant — starts from fresh data.
func compile(b *kasm.Builder, opts codegen.Options, name, description string, l launch) (*Workload, error) {
	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	k, err := codegen.Compile(prog, opts)
	if err != nil {
		return nil, err
	}
	prepare := func(dev *sim.Device) (*Run, error) {
		bufs := make([]sim.Buffer, len(l.sizes))
		for i, n := range l.sizes {
			var err error
			if bufs[i], err = dev.Alloc(n); err != nil {
				return nil, err
			}
		}
		contents, check := l.host()
		for i, c := range contents {
			var err error
			switch vals := c.(type) {
			case nil:
			case []float32:
				err = dev.WriteF32(bufs[i], vals)
			case []float64:
				err = dev.WriteF64(bufs[i], vals)
			case []int32:
				err = dev.WriteI32(bufs[i], vals)
			default:
				err = fmt.Errorf("buffer %d: unsupported contents %T", i, c)
			}
			if err != nil {
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
				return check(dev, bufs, res)
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
