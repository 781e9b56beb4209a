package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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

// pageShift sets the granule of demand filling: 4 KiB pages of the image.
const pageShift = 12

// Device models one GPU: its global memory arena and texture bindings.
// It plays the role of the CUDA runtime for examples and benchmarks
// (Alloc ~ cudaMalloc, CopyToDevice ~ cudaMemcpy).
type Device struct {
	Arch gpu.Arch

	mem   []byte
	next  uint64 // next free offset
	texes []Texture

	// Demand filling (Fill). fills is every generator declared, in order;
	// nil while none is, which is the one branch an access pays then.
	// pages holds one state word per page of the image: 0 when the bytes
	// in mem are its contents, else 1 + the index of the first fill still
	// to be applied to it. A page is filled under fillMu and published by
	// an atomic store of 0; filled counts the pages filled so far.
	fills  []fill
	pages  []atomic.Uint32
	fillMu sync.Mutex
	filled int
}

// fill is one Fill declaration: element i of the width-byte words at
// image offset off..off+size holds gen(i).
type fill struct {
	off, size uint64
	width     int
	gen       func(i int) uint64
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
	// A lane access spans one page, almost always a ready one: check it
	// here and leave the rest to touch.
	if p := off >> pageShift; d.fills != nil && n > 0 && p < uint64(len(d.pages)) &&
		(d.pages[p].Load() != 0 || (off+uint64(n)-1)>>pageShift != p) {
		d.touch(off, off+uint64(n))
	}
	return d.mem[off : off+uint64(n)], nil
}

// Fill declares that element i of buf holds gen(i), stored as a width-byte
// (4 or 8) little-endian word, for every i < buf.Size/width. No element is
// written now (the image is backed, as by any host accessor): each 4 KiB
// page of the buffer is filled from its generators the first time a lane
// access, a host accessor or MemorySnapshot touches it, so a launch that
// samples a few SMs pays only for the pages they read. A later Fill or
// host write over the same bytes overrides it, as an eager write would.
// gen must be a pure function of i that does not call the Device: it runs
// under the device's fill lock, on any goroutine of a launch, for any
// subset of the elements, in any order. Fill itself, like Alloc, must not
// run concurrently with a launch on the same device.
func (d *Device) Fill(buf Buffer, width int, gen func(i int) uint64) error {
	off := buf.Addr - memBase
	switch {
	case width != 4 && width != 8:
		return fmt.Errorf("sim: Fill width %d, want 4 or 8", width)
	case gen == nil:
		return fmt.Errorf("sim: Fill without a generator")
	case buf.Addr < memBase || buf.Size <= 0 || off > d.next || uint64(buf.Size) > d.next-off:
		return fmt.Errorf("sim: Fill of device address %#x+%d out of bounds", buf.Addr, buf.Size)
	case buf.Size%width != 0 || off%uint64(width) != 0:
		return fmt.Errorf("sim: Fill of %d-byte words over a %d-byte buffer at %#x: size or address is not a multiple of the width",
			width, buf.Size, buf.Addr)
	}
	d.materialize()
	f := fill{off: off, size: uint64(buf.Size), width: width, gen: gen}
	first, last := off>>pageShift, (off+f.size-1)>>pageShift
	if n := int(last) + 1; n > len(d.pages) {
		grown := make([]atomic.Uint32, n)
		for p := range d.pages {
			grown[p].Store(d.pages[p].Load())
		}
		d.pages = grown
	}
	for p := first; p <= last; p++ {
		d.pages[p].CompareAndSwap(0, uint32(len(d.fills))+1)
	}
	d.fills = append(d.fills, f)
	return nil
}

// touch fills the pending pages overlapping image bytes [lo, hi), lo < hi.
func (d *Device) touch(lo, hi uint64) {
	end := min((hi-1)>>pageShift+1, uint64(len(d.pages)))
	for p := lo >> pageShift; p < end; p++ {
		if d.pages[p].Load() != 0 {
			d.fillPage(p)
		}
	}
}

// fillPage applies to page p, in declaration order, every fill declared
// since p was last filled. Concurrent first touches serialize on fillMu;
// the loser finds the page published and returns.
func (d *Device) fillPage(p uint64) {
	d.fillMu.Lock()
	defer d.fillMu.Unlock()
	first := d.pages[p].Load()
	if first == 0 {
		return
	}
	lo, hi := p<<pageShift, (p+1)<<pageShift
	for _, f := range d.fills[first-1:] {
		if f.off >= hi || f.off+f.size <= lo {
			continue
		}
		w := uint64(f.width)
		i0 := (max(lo, f.off) - f.off) / w
		i1 := (min(hi, f.off+f.size) - f.off) / w
		dst, i := d.mem[f.off+i0*w:f.off+i1*w], int(i0)
		if w == 4 {
			for ; len(dst) >= 4; i, dst = i+1, dst[4:] {
				binary.LittleEndian.PutUint32(dst, uint32(f.gen(i)))
			}
		} else {
			for ; len(dst) >= 8; i, dst = i+1, dst[8:] {
				binary.LittleEndian.PutUint64(dst, f.gen(i))
			}
		}
	}
	d.filled++
	d.pages[p].Store(0)
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
	if d.fills != nil {
		d.touch(0, d.next)
		d.fills, d.pages = nil, nil
	}
	out := make([]byte, d.next)
	copy(out, d.mem[:d.next])
	return out
}
