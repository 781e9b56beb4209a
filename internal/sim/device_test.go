package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
)

// TestTypedReadsRespectTheBuffer: ReadF32, ReadF64 and ReadI32 refuse to
// read past the buffer they are given, as CopyFromDevice and the writers
// do, even where the device bytes that follow belong to the next buffer.
func TestTypedReadsRespectTheBuffer(t *testing.T) {
	d := NewDevice(gpu.V100())
	a, b := d.MustAlloc(16), d.MustAlloc(16)
	if err := d.WriteI32(b, []int32{42}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		read func(n int) error
		fits int
	}{
		{"ReadF32", func(n int) error { _, err := d.ReadF32(a, n); return err }, 4},
		{"ReadF64", func(n int) error { _, err := d.ReadF64(a, n); return err }, 2},
		{"ReadI32", func(n int) error { _, err := d.ReadI32(a, n); return err }, 4},
	} {
		if err := tc.read(tc.fits); err != nil {
			t.Errorf("%s of the whole buffer: %v", tc.name, err)
		}
		for _, n := range []int{tc.fits + 1, 65, -1} {
			if err := tc.read(n); err == nil {
				t.Errorf("%s(%d) of a 16-byte buffer succeeded", tc.name, n)
			}
		}
	}
}

// launchAt runs body (SASS lines) in blocks 32-thread blocks, one per SM,
// with R2:R3 = buf's address.
func launchAt(t *testing.T, d *Device, buf Buffer, blocks, workers int, body ...string) (*Result, error) {
	t.Helper()
	text := ".kernel k sm_70 regs=8 shared=0 local=0 const=0\n/*0000*/ IMAD.WIDE R2, RZ, 0x1, c[0x0][0x160] ;\n"
	for i, line := range append(body, "EXIT") {
		text += fmt.Sprintf("/*%04x*/ %s ;\n", (i+1)*sass.InstBytes, line)
	}
	k, err := sass.Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	return Launch(d, LaunchSpec{Kernel: k, Grid: D1(blocks), Block: D1(32), Params: []uint64{buf.Addr}},
		Config{SampleSMs: blocks, Workers: workers, MaxCycles: 1e5})
}

// TestLaneAccessAlignment: a lane access must be naturally aligned, as on
// the hardware, so none spans two pages. An 8-byte load at an address
// ≡ 4 (mod 8) fails the launch with an execution error naming its PC,
// whichever number of workers simulates the faulting SMs; a 4-byte access
// to the last word of a page works.
func TestLaneAccessAlignment(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d := NewDevice(gpu.V100())
		buf := d.MustAlloc(2 * pageBytes)
		_, err := launchAt(t, d, buf, 8, workers, "LDG.E.64.SYS R4, [R2+0xffc]")
		var ee *execError
		var me *misalignedError
		if !asExecError(err, &ee) || ee.PC != 0x10 || !errors.As(err, &me) || me.addr != buf.Addr+0xffc || me.width != 8 {
			t.Errorf("Workers=%d: misaligned LDG.E.64: err = %v, want a misaligned-address execution error at PC 0x10", workers, err)
		}
	}

	d := NewDevice(gpu.V100())
	buf := d.MustAlloc(2 * pageBytes)
	if err := d.Fill(buf, 4, func(i int) uint64 { return uint64(i) }); err != nil {
		t.Fatal(err)
	}
	// Copy the last word of page 1 into the last word of page 0.
	if _, err := launchAt(t, d, buf, 1, 1, "LDG.E.SYS R4, [R2+0x1ffc]", "STG.E.SYS [R2+0xffc], R4"); err != nil {
		t.Fatalf("4-byte accesses to the last word of a page: %v", err)
	}
	got, err := d.ReadI32(buf, 2*pageBytes/4)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		want := int32(i)
		if i == pageBytes/4-1 {
			want = 2*pageBytes/4 - 1
		}
		if g != want {
			t.Fatalf("word %d = %d, want %d", i, g, want)
		}
	}
}

// TestGlobalDoorFaultOrder: an LDG or STG checks the warp's addresses at
// once, yet faults as a lane-by-lane move would. When lane k is out of
// bounds or misaligned, the launch fails with lane k's own Device.lane
// error, the lanes below k have stored and the lanes from k on have not.
// A warp whose addresses straddle a page boundary loads and stores every
// lane, and an LDG no lane runs touches nothing and allocates nothing.
func TestGlobalDoorFaultOrder(t *testing.T) {
	for _, k := range []int{0, 5, 31} {
		for _, bad := range []uint64{0x10000, 0x2} { // out of bounds, misaligned
			d := NewDevice(gpu.V100())
			buf := d.MustAlloc(2 * pageBytes)
			_, err := launchAt(t, d, buf, 1, 1,
				"S2R R0, SR_TID.X",
				"IADD3 R1, R0, 0x1, RZ",
				"SHF.L R4, R0, 0x2, RZ",
				fmt.Sprintf("ISETP.EQ.AND P0, PT, R0, %#x, PT", k),
				fmt.Sprintf("@P0 IADD3 R4, R4, %#x, RZ", bad),
				"IMAD.WIDE R2, R4, 0x1, R2",
				"STG.E.SYS [R2], R1")
			_, want := d.lane(buf.Addr+uint64(4*k)+bad, 4)
			var ee *execError
			if want == nil || !asExecError(err, &ee) || ee.PC != 0x70 || ee.Err.Error() != want.Error() {
				t.Fatalf("lane %d at +%#x: err = %v, want lane %d's error %v at PC 0x70", k, bad, err, k, want)
			}
			got, err := d.ReadI32(buf, 32)
			if err != nil {
				t.Fatal(err)
			}
			for lane, g := range got {
				if stored := int32(lane + 1); (lane < k) != (g == stored) || (lane >= k && g != 0) {
					t.Fatalf("lane %d at +%#x: word %d = %d, want it stored only below lane %d", k, bad, lane, g, k)
				}
			}
		}
	}

	// Words 1 008..1 039 straddle the first page boundary at lane 16.
	d := NewDevice(gpu.V100())
	buf := d.MustAlloc(2 * pageBytes)
	if err := d.Fill(buf, 4, func(i int) uint64 { return uint64(3 * i) }); err != nil {
		t.Fatal(err)
	}
	if _, err := launchAt(t, d, buf, 1, 1,
		"S2R R0, SR_TID.X",
		"SHF.L R4, R0, 0x2, RZ",
		"IMAD.WIDE R2, R4, 0x1, R2",
		"LDG.E.SYS R5, [R2+0xfc0]",
		"IADD3 R5, R5, 0x1, RZ",
		"STG.E.SYS [R2+0xfc0], R5"); err != nil {
		t.Fatalf("straddling warp: %v", err)
	}
	got, err := d.ReadI32(buf, 2*pageBytes/4)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		want := int32(3 * i)
		if i >= 0xfc0/4 && i < 0xfc0/4+32 {
			want++
		}
		if g != want {
			t.Fatalf("straddling warp: word %d = %d, want %d", i, g, want)
		}
	}

	// A guarded-off LDG of an out-of-bounds address, run 16 or 64 times by
	// a warp, allocates nothing either way (the race runtime allocates).
	allocs := func(n int) float64 {
		d := NewDevice(gpu.V100())
		buf := d.MustAlloc(pageBytes)
		return testing.AllocsPerRun(5, func() {
			if _, err := launchAt(t, d, buf, 2, 1,
				"MOV R1, 0x0",
				"@!PT LDG.E.SYS R4, [R2+0x10000]",
				"IADD3 R1, R1, 0x1, RZ",
				fmt.Sprintf("ISETP.LT.AND P0, PT, R1, %#x, PT", n),
				"@P0 BRA 0x20"); err != nil {
				t.Fatalf("guarded-off LDG: %v", err)
			}
		})
	}
	if few, many := allocs(16), allocs(64); few != many && !raceEnabled {
		t.Errorf("a guarded-off LDG: %v allocations per launch run 16 times, %v run 64 times", few, many)
	}
}

// FuzzDeviceImage is the differential check of the paged image: a random
// sequence of Alloc, Fill, host writes and reads, aligned lane accesses
// and MemorySnapshot runs against a flat byte slice written eagerly, and
// every read must see the flat slice's bytes. A page must stay unbacked
// until something writes it, a lane touches it, or a read meets a Fill
// over it: reading zeros backs nothing. The committed seeds
// (testdata/fuzz/FuzzDeviceImage) are random op strings.
func FuzzDeviceImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		d := NewDevice(gpu.V100())
		var (
			ref     []byte   // the image, written eagerly
			bufs    []Buffer // what Alloc handed out
			fills   []fill   // every Fill declared, for mayBack
			mayBack = map[uint64]bool{}
		)
		// pick returns a random sub-buffer of one of bufs whose offset and
		// size are multiples of align, its image offset, and false when
		// there is none.
		pick := func(align int) (Buffer, uint64, bool) {
			if len(bufs) == 0 {
				return Buffer{}, 0, false
			}
			b := bufs[next()%len(bufs)]
			off := (next() | next()<<8) % (b.Size + 1) / align * align
			n := (next() | next()<<8) % (b.Size - off + 1) / align * align
			return Buffer{Addr: b.Addr + uint64(off), Size: n}, b.Addr + uint64(off) - memBase, true
		}
		// touched marks image bytes [lo, lo+n) as ones the op may back:
		// all of them for a write or a lane access, only those under a
		// Fill for a host read.
		touched := func(lo uint64, n int, read bool) {
			for p := lo >> pageShift; n > 0 && p <= (lo+uint64(n)-1)>>pageShift; p++ {
				for _, f := range fills {
					mayBack[p] = mayBack[p] || f.covers(p)
				}
				mayBack[p] = mayBack[p] || !read
			}
		}
		word := func(i, seed int) uint64 { return (uint64(i) + 1) * 0x9e3779b97f4a7c15 * uint64(seed|1) }
		le := binary.LittleEndian
		for op := 0; len(data) > 0 && op < 64; op++ {
			switch kind := next() % 10; kind {
			case 0: // Alloc
				n := 1 + (next()|next()<<8)%(3*pageBytes)
				if d.next+uint64(n) > 1<<16 {
					continue
				}
				b, err := d.Alloc(n)
				if err != nil {
					t.Fatalf("Alloc(%d): %v", n, err)
				}
				bufs = append(bufs, b)
				ref = append(ref, make([]byte, int(d.next)-len(ref))...)
			case 1: // Fill
				width := 4 << (next() % 2)
				sub, off, ok := pick(width)
				if !ok || sub.Size == 0 {
					continue
				}
				seed := next()
				gen := func(i int) uint64 { return word(i, seed) }
				if err := d.Fill(sub, width, gen); err != nil {
					t.Fatalf("Fill(%#x+%d, %d): %v", sub.Addr, sub.Size, width, err)
				}
				fills = append(fills, fill{off: off, size: uint64(sub.Size), width: width, gen: gen})
				for i := 0; i < sub.Size/width; i++ {
					if at := ref[off+uint64(i*width):]; width == 4 {
						le.PutUint32(at, uint32(gen(i)))
					} else {
						le.PutUint64(at, gen(i))
					}
				}
			case 2: // CopyToDevice
				sub, off, ok := pick(1)
				if !ok {
					continue
				}
				src, seed := make([]byte, sub.Size), next()
				for i := range src {
					src[i] = byte(word(i, seed))
				}
				if err := d.CopyToDevice(sub, src); err != nil {
					t.Fatal(err)
				}
				copy(ref[off:], src)
				touched(off, len(src), false)
			case 3, 4: // WriteF32, WriteI32
				sub, off, ok := pick(1)
				if !ok {
					continue
				}
				seed, n := next(), sub.Size/4
				var err error
				if kind%2 == 0 {
					vals := make([]float32, n)
					for i := range vals {
						vals[i] = math.Float32frombits(uint32(word(i, seed)))
					}
					err = d.WriteF32(sub, vals)
				} else {
					vals := make([]int32, n)
					for i := range vals {
						vals[i] = int32(word(i, seed))
					}
					err = d.WriteI32(sub, vals)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					le.PutUint32(ref[off+uint64(4*i):], uint32(word(i, seed)))
				}
				touched(off, 4*n, false)
			case 5: // CopyFromDevice, ReadF32, ReadF64, ReadI32
				sub, off, ok := pick(1)
				if !ok {
					continue
				}
				got := make([]byte, sub.Size)
				if err := d.CopyFromDevice(got, sub); err != nil {
					t.Fatal(err)
				}
				f32, err1 := d.ReadF32(sub, sub.Size/4)
				f64, err2 := d.ReadF64(sub, sub.Size/8)
				i32, err3 := d.ReadI32(sub, sub.Size/4)
				if err := errors.Join(err1, err2, err3); err != nil {
					t.Fatal(err)
				}
				want := ref[off : off+uint64(sub.Size)]
				if !bytes.Equal(got, want) {
					t.Fatalf("CopyFromDevice(%#x+%d) differs from the eager image", sub.Addr, sub.Size)
				}
				for i := range f32 {
					if math.Float32bits(f32[i]) != le.Uint32(want[4*i:]) || uint32(i32[i]) != le.Uint32(want[4*i:]) {
						t.Fatalf("ReadF32/ReadI32(%#x) word %d differs from the eager image", sub.Addr, i)
					}
				}
				for i := range f64 {
					if math.Float64bits(f64[i]) != le.Uint64(want[8*i:]) {
						t.Fatalf("ReadF64(%#x) word %d differs from the eager image", sub.Addr, i)
					}
				}
				touched(off, sub.Size, true)
			case 6, 7: // a lane read or write
				width := 4 << (next() % 3)
				sub, off, ok := pick(width)
				if !ok || sub.Size < width {
					continue
				}
				got, err := d.lane(sub.Addr, width)
				if err != nil {
					t.Fatalf("lane(%#x, %d): %v", sub.Addr, width, err)
				}
				if kind%2 == 0 {
					if !bytes.Equal(got, ref[off:off+uint64(width)]) {
						t.Fatalf("lane(%#x, %d) = %x, want %x", sub.Addr, width, got, ref[off:off+uint64(width)])
					}
				} else {
					seed := next()
					for i := range got {
						got[i] = byte(word(i, seed))
					}
					copy(ref[off:], got)
				}
				touched(off, width, false)
				if off+uint64(width+width/2) <= d.next {
					if _, err := d.lane(sub.Addr+uint64(width/2), width); !errors.As(err, new(*misalignedError)) {
						t.Fatalf("lane(%#x, %d): err = %v, want a misaligned-address error", sub.Addr+uint64(width/2), width, err)
					}
				}
			case 8: // MemorySnapshot
				if snap := d.MemorySnapshot(); !bytes.Equal(snap, ref) {
					t.Fatal("MemorySnapshot differs from the eager image")
				}
				touched(0, len(ref), true)
			case 9: // a read past the buffer is refused
				sub, _, ok := pick(1)
				if !ok {
					continue
				}
				if _, err := d.ReadF32(sub, sub.Size/4+1); err == nil {
					t.Fatalf("ReadF32 of %d words from a %d-byte buffer succeeded", sub.Size/4+1, sub.Size)
				}
			}
			for p := range d.pages {
				if d.pages[p].Load() != nil && !mayBack[uint64(p)] {
					t.Fatalf("page %d is backed, but nothing wrote it and no Fill covers it", p)
				}
			}
		}
		if snap := d.MemorySnapshot(); !bytes.Equal(snap, ref) {
			t.Fatal("final MemorySnapshot differs from the eager image")
		}
	})
}
