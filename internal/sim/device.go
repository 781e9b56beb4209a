package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"gpuscout/internal/gpu"
)

// memBase is the first device virtual address handed out by Alloc; a
// non-zero base makes accidental nil-pointer dereferences in kernels
// detectable.
const memBase uint64 = 0x7f0000000

// MaxDeviceBytes bounds the device addresses one Device hands out. A
// workload's footprint grows with a request's scale, and a launch may touch
// — and so back with host memory — any page of it, so the modeled DRAM
// size (16 GiB on a V100) is no protection for the host: 128 MiB is ~12x
// the largest footprint any shipped test, benchmark request, example or
// experiment allocates (10 MiB).
const MaxDeviceBytes = 128 << 20

// The image is held in 4 KiB pages, each backed on its first touch.
const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageMask  = pageBytes - 1
)

// Device models one GPU: its global memory arena and texture bindings.
// It plays the role of the CUDA runtime for examples and benchmarks
// (Alloc ~ cudaMalloc, CopyToDevice ~ cudaMemcpy).
type Device struct {
	Arch gpu.Arch

	next  uint64 // next free offset
	texes []Texture

	// pages is the image: one entry per 4 KiB page of what Alloc handed
	// out, nil until the page is first touched. fills is every Fill
	// declared, in order; a page is backed, given every fill over it and
	// published under fillMu, and filled counts the backed pages a fill
	// wrote.
	pages  []atomic.Pointer[[pageBytes]byte]
	fills  []fill
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

// covers reports whether f declares words on page p.
func (f fill) covers(p uint64) bool {
	return f.off < (p+1)<<pageShift && f.off+f.size > p<<pageShift
}

// apply writes f's words on page p into pg, the page's contents, and
// reports whether there were any.
func (f fill) apply(pg *[pageBytes]byte, p uint64) bool {
	if !f.covers(p) {
		return false
	}
	lo, w := p<<pageShift, uint64(f.width)
	i0 := (max(lo, f.off) - f.off) / w
	i1 := (min(lo+pageBytes, f.off+f.size) - f.off) / w
	dst, i := pg[f.off+i0*w-lo:f.off+i1*w-lo], int(i0)
	if w == 4 {
		for ; len(dst) >= 4; i, dst = i+1, dst[4:] {
			binary.LittleEndian.PutUint32(dst, uint32(f.gen(i)))
		}
	} else {
		for ; len(dst) >= 8; i, dst = i+1, dst[8:] {
			binary.LittleEndian.PutUint64(dst, f.gen(i))
		}
	}
	return true
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

// misalignedError is a lane access whose address is not a multiple of its
// width, which the hardware faults (misaligned address). No lane access
// therefore spans two pages.
type misalignedError struct {
	addr  uint64
	width int
}

func (e *misalignedError) Error() string {
	return fmt.Sprintf("sim: misaligned device address %#x for a %d-byte access", e.addr, e.width)
}

// NewDevice creates a device with the given architecture.
func NewDevice(arch gpu.Arch) *Device {
	return &Device{Arch: arch}
}

// Alloc reserves n bytes of device memory (256-byte aligned). It hands out
// addresses only: a page is backed by host memory when first touched.
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
	if np := int((d.next + pageMask) >> pageShift); np > len(d.pages) {
		d.pages = slices.Grow(d.pages, np-len(d.pages))[:np]
	}
	return Buffer{Addr: memBase + off, Size: n}, nil
}

// MustAlloc is Alloc for tests and examples with static sizes.
func (d *Device) MustAlloc(n int) Buffer {
	b, err := d.Alloc(n)
	if err != nil {
		panic(err)
	}
	return b
}

// offset is the image offset of device bytes addr..addr+n, which must lie
// within what Alloc handed out.
func (d *Device) offset(addr uint64, n int) (uint64, error) {
	if !d.holds(addr, n) {
		return 0, fmt.Errorf("sim: device address %#x+%d out of bounds", addr, n)
	}
	return addr - memBase, nil
}

// holds reports whether device bytes addr..addr+n lie within what Alloc
// handed out.
func (d *Device) holds(addr uint64, n int) bool {
	off := addr - memBase
	return addr >= memBase && off <= d.next && uint64(n) <= d.next-off
}

// lane is the door to the image for lane accesses (global, texture,
// atomic, async copy): the width bytes at addr, naturally aligned, so
// within one page, which it backs on its first touch.
func (d *Device) lane(addr uint64, width int) ([]byte, error) {
	off, err := d.offset(addr, width)
	if err != nil {
		return nil, err
	}
	if off&uint64(width-1) != 0 {
		return nil, &misalignedError{addr, width}
	}
	return d.page(off >> pageShift)[off&pageMask:][:width], nil
}

// page returns page p, backing it if this is its first touch.
func (d *Device) page(p uint64) *[pageBytes]byte {
	if pg := d.pages[p].Load(); pg != nil {
		return pg
	}
	return d.back(p)
}

// back backs page p: it allocates the page, applies every Fill over it in
// declaration order and publishes it. Concurrent first touches serialize
// on fillMu; the loser finds the page published.
func (d *Device) back(p uint64) *[pageBytes]byte {
	d.fillMu.Lock()
	defer d.fillMu.Unlock()
	pg := d.pages[p].Load()
	if pg != nil {
		return pg
	}
	pg, filled := new([pageBytes]byte), false
	for _, f := range d.fills {
		filled = f.apply(pg, p) || filled
	}
	if filled {
		d.filled++
	}
	d.pages[p].Store(pg)
	return pg
}

// Fill declares that element i of buf holds gen(i), stored as a width-byte
// (4 or 8) little-endian word, for every i < buf.Size/width. It writes
// only the pages of buf already backed; every other page receives its
// words when first touched by a lane access, a host accessor or
// MemorySnapshot, so a launch that samples a few SMs pays only for the
// pages they touch. A later Fill or host write over the same bytes
// overrides it, as an eager write would. gen must be a pure function of i
// that does not call the Device: it runs under the device's fill lock, on
// any goroutine of a launch, for any subset of the elements, in any order.
// Fill itself, like Alloc, must not run concurrently with a launch on the
// same device.
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
	f := fill{off: off, size: uint64(buf.Size), width: width, gen: gen}
	for p := off >> pageShift; p <= (off+f.size-1)>>pageShift; p++ {
		if pg := d.pages[p].Load(); pg != nil {
			f.apply(pg, p)
		}
	}
	d.fills = append(d.fills, f)
	return nil
}

// read copies the image from offset off into dst. A page never touched
// reads as zeros and stays unbacked, unless a Fill covers it.
func (d *Device) read(dst []byte, off uint64) {
	for len(dst) > 0 {
		p, in := off>>pageShift, off&pageMask
		n := min(len(dst), int(pageBytes-in))
		if d.pages[p].Load() != nil || slices.ContainsFunc(d.fills, func(f fill) bool { return f.covers(p) }) {
			copy(dst[:n], d.page(p)[in:])
		} else {
			clear(dst[:n])
		}
		dst, off = dst[n:], off+uint64(n)
	}
}

// write copies src into the image from offset off.
func (d *Device) write(off uint64, src []byte) {
	for len(src) > 0 {
		n := copy(d.page(off >> pageShift)[off&pageMask:], src)
		src, off = src[n:], off+uint64(n)
	}
}

// CopyToDevice writes host bytes into device memory.
func (d *Device) CopyToDevice(dst Buffer, src []byte) error {
	if len(src) > dst.Size {
		return fmt.Errorf("sim: copy of %d bytes into %d-byte buffer", len(src), dst.Size)
	}
	off, err := d.offset(dst.Addr, len(src))
	if err != nil {
		return err
	}
	d.write(off, src)
	return nil
}

// CopyFromDevice reads device memory into a host slice.
func (d *Device) CopyFromDevice(dst []byte, src Buffer) error {
	if len(dst) > src.Size {
		return fmt.Errorf("sim: copy of %d bytes from %d-byte buffer", len(dst), src.Size)
	}
	off, err := d.offset(src.Addr, len(dst))
	if err != nil {
		return err
	}
	d.read(dst, off)
	return nil
}

// writeWords stores vals as width-byte words at dst, encoding them a page
// of bytes at a time.
func writeWords[T any](d *Device, dst Buffer, vals []T, width int, put func([]byte, T)) error {
	if len(vals)*width > dst.Size {
		return fmt.Errorf("sim: %d %d-byte words exceed %d-byte buffer", len(vals), width, dst.Size)
	}
	off, err := d.offset(dst.Addr, len(vals)*width)
	if err != nil {
		return err
	}
	chunk := make([]byte, min(len(vals)*width, pageBytes))
	for len(vals) > 0 {
		k := min(len(vals), pageBytes/width)
		for i, v := range vals[:k] {
			put(chunk[i*width:], v)
		}
		d.write(off, chunk[:k*width])
		vals, off = vals[k:], off+uint64(k*width)
	}
	return nil
}

// readWords loads n width-byte words from src, decoding them a page of
// bytes at a time.
func readWords[T any](d *Device, src Buffer, n, width int, get func([]byte) T) ([]T, error) {
	if n < 0 || n*width > src.Size {
		return nil, fmt.Errorf("sim: %d %d-byte words exceed %d-byte buffer", n, width, src.Size)
	}
	off, err := d.offset(src.Addr, n*width)
	if err != nil {
		return nil, err
	}
	out := make([]T, n)
	chunk := make([]byte, min(n*width, pageBytes))
	for vals := out; len(vals) > 0; {
		k := min(len(vals), pageBytes/width)
		d.read(chunk[:k*width], off)
		for i := range vals[:k] {
			vals[i] = get(chunk[i*width:])
		}
		vals, off = vals[k:], off+uint64(k*width)
	}
	return out, nil
}

// WriteF32 fills a buffer with float32 values.
func (d *Device) WriteF32(dst Buffer, vals []float32) error {
	return writeWords(d, dst, vals, 4, func(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) })
}

// ReadF32 reads n float32 values from a buffer.
func (d *Device) ReadF32(src Buffer, n int) ([]float32, error) {
	return readWords(d, src, n, 4, func(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) })
}

// ReadF64 reads n float64 values from a buffer.
func (d *Device) ReadF64(src Buffer, n int) ([]float64, error) {
	return readWords(d, src, n, 8, func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) })
}

// WriteI32 fills a buffer with int32 values.
func (d *Device) WriteI32(dst Buffer, vals []int32) error {
	return writeWords(d, dst, vals, 4, func(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) })
}

// ReadI32 reads n int32 values from a buffer.
func (d *Device) ReadI32(src Buffer, n int) ([]int32, error) {
	return readWords(d, src, n, 4, func(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) })
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
	out := make([]byte, d.next)
	d.read(out, 0)
	return out
}
