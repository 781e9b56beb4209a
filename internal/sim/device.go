package sim

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpuscout/internal/gpu"
)

// memBase is the first device virtual address handed out by Alloc; a
// non-zero base makes accidental nil-pointer dereferences in kernels
// detectable.
const memBase uint64 = 0x7f0000000

// MaxDeviceBytes bounds the device memory one Device hands out. The
// simulator backs every allocated byte with host memory, and a workload's
// footprint grows with a request's scale, so the modeled DRAM size
// (16 GiB on a V100) is no protection for the host: 128 MiB is ~12x the
// largest footprint any shipped test, benchmark request, example or
// experiment allocates (10 MiB).
const MaxDeviceBytes = 128 << 20

// Device models one GPU: its global memory arena and texture bindings.
// It plays the role of the CUDA runtime for examples and benchmarks
// (Alloc ~ cudaMalloc, CopyToDevice ~ cudaMemcpy).
type Device struct {
	Arch gpu.Arch

	mem   []byte
	next  uint64 // next free offset
	texes []Texture
}

// Buffer is a device memory allocation.
type Buffer struct {
	Addr uint64
	Size int
}

// Texture describes a 2D texture binding over a device buffer, fetched
// with TEX.2D: a Width x Height array of float32 texels with clamped
// integer addressing (the tex2D() analogue of §5.2).
type Texture struct {
	Base   uint64
	Width  int
	Height int
}

// NewDevice creates a device with the given architecture.
func NewDevice(arch gpu.Arch) *Device {
	return &Device{Arch: arch}
}

// Alloc reserves n bytes of device memory (256-byte aligned).
func (d *Device) Alloc(n int) (Buffer, error) {
	if n <= 0 {
		return Buffer{}, fmt.Errorf("sim: Alloc(%d)", n)
	}
	aligned := (n + 255) / 256 * 256
	if d.next+uint64(aligned) > uint64(d.Arch.DRAMBytes) {
		return Buffer{}, fmt.Errorf("sim: device out of memory (%d requested, %d in use)", n, d.next)
	}
	if d.next+uint64(aligned) > MaxDeviceBytes {
		return Buffer{}, fmt.Errorf("sim: launch footprint over the host bound (%d B requested, %d B in use, at most %d MiB per device)",
			n, d.next, MaxDeviceBytes>>20)
	}
	off := d.next
	d.next += uint64(aligned)
	return Buffer{Addr: memBase + off, Size: n}, nil
}

// materialize backs every allocated byte with host memory. Alloc only
// hands out addresses; the host accessors and launch call this before
// they touch memory, so buffers allocated together — a workload's whole
// launch — cost one allocation of exactly their total and no copy. Only an
// image that already holds data grows with headroom.
func (d *Device) materialize() {
	need := int(d.next)
	if need <= len(d.mem) {
		return
	}
	if len(d.mem) > 0 {
		need = min(need*2, MaxDeviceBytes)
	}
	grown := make([]byte, need)
	copy(grown, d.mem)
	d.mem = grown
}

// host is slice for the host side of the device: the accessors below,
// which may be the first to touch a fresh allocation.
func (d *Device) host(addr uint64, n int) ([]byte, error) {
	d.materialize()
	return d.slice(addr, n)
}

// MustAlloc is Alloc for tests and examples with static sizes.
func (d *Device) MustAlloc(n int) Buffer {
	b, err := d.Alloc(n)
	if err != nil {
		panic(err)
	}
	return b
}

func (d *Device) slice(addr uint64, n int) ([]byte, error) {
	off := addr - memBase
	if addr < memBase || off > d.next || uint64(n) > d.next-off {
		return nil, fmt.Errorf("sim: device address %#x+%d out of bounds", addr, n)
	}
	return d.mem[off : off+uint64(n)], nil
}

// CopyToDevice writes host bytes into device memory.
func (d *Device) CopyToDevice(dst Buffer, src []byte) error {
	if len(src) > dst.Size {
		return fmt.Errorf("sim: copy of %d bytes into %d-byte buffer", len(src), dst.Size)
	}
	s, err := d.host(dst.Addr, len(src))
	if err != nil {
		return err
	}
	copy(s, src)
	return nil
}

// CopyFromDevice reads device memory into a host slice.
func (d *Device) CopyFromDevice(dst []byte, src Buffer) error {
	if len(dst) > src.Size {
		return fmt.Errorf("sim: copy of %d bytes from %d-byte buffer", len(dst), src.Size)
	}
	s, err := d.host(src.Addr, len(dst))
	if err != nil {
		return err
	}
	copy(dst, s)
	return nil
}

// WriteF32 fills a buffer with float32 values.
func (d *Device) WriteF32(dst Buffer, vals []float32) error {
	if len(vals)*4 > dst.Size {
		return fmt.Errorf("sim: %d floats exceed %d-byte buffer", len(vals), dst.Size)
	}
	s, err := d.host(dst.Addr, len(vals)*4)
	if err != nil {
		return err
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(s[i*4:], math.Float32bits(v))
	}
	return nil
}

// ReadF32 reads n float32 values from a buffer.
func (d *Device) ReadF32(src Buffer, n int) ([]float32, error) {
	s, err := d.host(src.Addr, n*4)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[i*4:]))
	}
	return out, nil
}

// WriteF64 fills a buffer with float64 values.
func (d *Device) WriteF64(dst Buffer, vals []float64) error {
	if len(vals)*8 > dst.Size {
		return fmt.Errorf("sim: %d doubles exceed %d-byte buffer", len(vals), dst.Size)
	}
	s, err := d.host(dst.Addr, len(vals)*8)
	if err != nil {
		return err
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(s[i*8:], math.Float64bits(v))
	}
	return nil
}

// ReadF64 reads n float64 values from a buffer.
func (d *Device) ReadF64(src Buffer, n int) ([]float64, error) {
	s, err := d.host(src.Addr, n*8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[i*8:]))
	}
	return out, nil
}

// WriteI32 fills a buffer with int32 values.
func (d *Device) WriteI32(dst Buffer, vals []int32) error {
	if len(vals)*4 > dst.Size {
		return fmt.Errorf("sim: %d ints exceed %d-byte buffer", len(vals), dst.Size)
	}
	s, err := d.host(dst.Addr, len(vals)*4)
	if err != nil {
		return err
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(s[i*4:], uint32(v))
	}
	return nil
}

// ReadI32 reads n int32 values from a buffer.
func (d *Device) ReadI32(src Buffer, n int) ([]int32, error) {
	s, err := d.host(src.Addr, n*4)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(s[i*4:]))
	}
	return out, nil
}

// BindTexture2D binds a width x height float32 texture over buf and
// returns its texture id for Tex2D fetches.
func (d *Device) BindTexture2D(buf Buffer, width, height int) (int, error) {
	if width*height*4 > buf.Size {
		return 0, fmt.Errorf("sim: texture %dx%d exceeds buffer size %d", width, height, buf.Size)
	}
	d.texes = append(d.texes, Texture{Base: buf.Addr, Width: width, Height: height})
	return len(d.texes) - 1, nil
}

// texture returns the bound texture descriptor.
func (d *Device) texture(id int) (Texture, error) {
	if id < 0 || id >= len(d.texes) {
		return Texture{}, fmt.Errorf("sim: texture id %d not bound", id)
	}
	return d.texes[id], nil
}

// MemorySnapshot copies the allocated portion of the device memory
// arena. Differential tests use it to compare the functional effects of
// two launches (e.g. sequential vs parallel simulation) byte for byte.
func (d *Device) MemorySnapshot() []byte {
	d.materialize()
	out := make([]byte, d.next)
	copy(out, d.mem[:d.next])
	return out
}
