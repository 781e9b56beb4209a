package sim

import (
	"math"
	"reflect"
	"testing"

	"gpuscout/internal/gpu"
)

// f32Gen is a Fill generator of float32 words.
func f32Gen(f func(i int) float32) func(int) uint64 {
	return func(i int) uint64 { return uint64(math.Float32bits(f(i))) }
}

func mustFill(t *testing.T, d *Device, buf Buffer, f func(i int) float32) {
	t.Helper()
	if err := d.Fill(buf, 4, f32Gen(f)); err != nil {
		t.Fatalf("Fill: %v", err)
	}
}

func readF32(t *testing.T, d *Device, buf Buffer, n int) []float32 {
	t.Helper()
	got, err := d.ReadF32(buf, n)
	if err != nil {
		t.Fatalf("ReadF32: %v", err)
	}
	return got
}

func wantF32(t *testing.T, what string, got []float32, want func(i int) float32) {
	t.Helper()
	for i, g := range got {
		if g != want(i) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, g, want(i))
		}
	}
}

// TestFillSharesAPageWithAWrite: two 256-byte buffers share one page;
// one is Filled and the other written eagerly, in either order, and each
// keeps its own contents.
func TestFillSharesAPageWithAWrite(t *testing.T) {
	gen := func(i int) float32 { return float32(i) + 0.5 }
	vals := []float32{7, 8, 9}
	for _, fillFirst := range []bool{true, false} {
		d := NewDevice(gpu.V100())
		a, b := d.MustAlloc(256), d.MustAlloc(256)
		if fillFirst {
			mustFill(t, d, a, gen)
		}
		if err := d.WriteF32(b, vals); err != nil {
			t.Fatal(err)
		}
		if !fillFirst {
			mustFill(t, d, a, gen)
		}
		wantF32(t, "a", readF32(t, d, a, 64), gen)
		wantF32(t, "b", readF32(t, d, b, 3), func(i int) float32 { return vals[i] })
	}
}

// TestFillHostWriteOverrides: a host write after Fill replaces the
// generated words it covers and only those.
func TestFillHostWriteOverrides(t *testing.T) {
	d := NewDevice(gpu.V100())
	buf := d.MustAlloc(3 * pageBytes)
	gen := func(i int) float32 { return float32(i % 97) }
	mustFill(t, d, buf, gen)
	// A write into the middle page, spanning no page boundary.
	at := Buffer{Addr: buf.Addr + pageBytes + 16, Size: 8}
	if err := d.WriteF32(at, []float32{-1, -2}); err != nil {
		t.Fatal(err)
	}
	wantF32(t, "buf", readF32(t, d, buf, 3*pageBytes/4), func(i int) float32 {
		switch i {
		case pageBytes/4 + 4:
			return -1
		case pageBytes/4 + 5:
			return -2
		}
		return gen(i)
	})
}

// TestFillReadAcrossPages: a read spanning a page already filled and
// pages still pending sees the generated words in all of them, and so
// does a snapshot.
func TestFillReadAcrossPages(t *testing.T) {
	d := NewDevice(gpu.V100())
	buf := d.MustAlloc(4 * pageBytes)
	gen := func(i int) float32 { return float32(i) * 0.25 }
	mustFill(t, d, buf, gen)
	readF32(t, d, Buffer{Addr: buf.Addr + 2*pageBytes, Size: 4}, 1) // fills page 2 only
	if d.filled != 1 {
		t.Fatalf("a one-word read filled %d pages, want 1", d.filled)
	}
	wantF32(t, "buf", readF32(t, d, Buffer{Addr: buf.Addr + pageBytes - 8, Size: 2*pageBytes + 16}, pageBytes/2+4),
		func(i int) float32 { return gen(pageBytes/4 - 2 + i) })
	snap := d.MemorySnapshot()
	for i := 0; i < 4*pageBytes/4; i++ {
		if got := math.Float32frombits(uint32(snap[4*i]) | uint32(snap[4*i+1])<<8 | uint32(snap[4*i+2])<<16 | uint32(snap[4*i+3])<<24); got != gen(i) {
			t.Fatalf("snapshot word %d = %v, want %v", i, got, gen(i))
		}
	}
}

// TestFillLastBufferBelowBound: Fill works on the buffer that ends
// exactly at MaxDeviceBytes, and touching its last word fills one page.
func TestFillLastBufferBelowBound(t *testing.T) {
	d := NewDevice(gpu.V100())
	d.MustAlloc(MaxDeviceBytes - pageBytes)
	last := d.MustAlloc(pageBytes)
	mustFill(t, d, last, func(i int) float32 { return float32(i) })
	got := readF32(t, d, Buffer{Addr: last.Addr + pageBytes - 4, Size: 4}, 1)
	if got[0] != pageBytes/4-1 || d.filled != 1 {
		t.Errorf("last word = %v after %d page fills, want %d after 1", got[0], d.filled, pageBytes/4-1)
	}
}

// TestFillRejectsMismatch: a width or length that does not fit the
// buffer is an error, and declares nothing.
func TestFillRejectsMismatch(t *testing.T) {
	d := NewDevice(gpu.V100())
	odd := d.MustAlloc(6)
	buf := d.MustAlloc(64)
	gen := func(int) uint64 { return 1 }
	for _, tc := range []struct {
		name  string
		buf   Buffer
		width int
		gen   func(int) uint64
	}{
		{"width 2", buf, 2, gen},
		{"width 0", buf, 0, gen},
		{"width 16", buf, 16, gen},
		{"size not a multiple of the width", odd, 4, gen},
		{"misaligned address", Buffer{Addr: buf.Addr + 2, Size: 8}, 4, gen},
		{"past the allocation", Buffer{Addr: buf.Addr, Size: 1 << 20}, 4, gen},
		{"below the device", Buffer{Addr: 64, Size: 64}, 4, gen},
		{"empty buffer", Buffer{Addr: buf.Addr}, 4, gen},
		{"no generator", buf, 4, nil},
	} {
		if err := d.Fill(tc.buf, tc.width, tc.gen); err == nil {
			t.Errorf("Fill(%s) succeeded", tc.name)
		}
	}
	if d.fills != nil {
		t.Errorf("refused Fills declared %d generators", len(d.fills))
	}
	if err := d.Fill(buf, 8, gen); err != nil {
		t.Errorf("Fill of 8-byte words over 64 bytes: %v", err)
	}
}

// TestFillKernelStoreKeepsPage: a kernel store into a pending page fills
// the page first, so the words around the stored ones keep their
// generated values; the launch reports each page it filled.
func TestFillKernelStoreKeepsPage(t *testing.T) {
	k := vecAddKernel(t)
	d := NewDevice(gpu.V100())
	// Each buffer spans three pages; the 32 threads touch the first only.
	a, b, c := d.MustAlloc(3*pageBytes), d.MustAlloc(3*pageBytes), d.MustAlloc(3*pageBytes)
	genA := func(i int) float32 { return float32(i) }
	genB := func(i int) float32 { return float32(2 * i) }
	genC := func(i int) float32 { return -float32(i) }
	mustFill(t, d, a, genA)
	mustFill(t, d, b, genB)
	mustFill(t, d, c, genC)
	const n = 32
	res, err := Launch(d, LaunchSpec{Kernel: k, Grid: D1(1), Block: D1(n),
		Params: []uint64{a.Addr, b.Addr, c.Addr, n}}, Config{SampleSMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.FilledPages != 3 {
		t.Errorf("FilledPages = %d, want 3 (one page of each buffer)", res.Host.FilledPages)
	}
	wantF32(t, "c", readF32(t, d, c, 3*pageBytes/4), func(i int) float32 {
		if i < n {
			return 3 * float32(i)
		}
		return genC(i)
	})
}

// TestFillConcurrentFirstTouch: at Workers 4, 32 SMs whose blocks all
// read the same two pending pages fault them concurrently; the result,
// the image and the filled-page count equal Workers 1's, and equal an
// eagerly written device's (the image).
func TestFillConcurrentFirstTouch(t *testing.T) {
	k := vecAddKernel(t)
	const n = pageBytes / 4 // one page per buffer
	genA := func(i int) float32 { return float32(i % 100) }
	genB := func(i int) float32 { return 0.5 * float32(i) }
	run := func(workers int, eager bool) (*Result, []byte) {
		d := NewDevice(gpu.V100())
		a, b, c := d.MustAlloc(4*n), d.MustAlloc(4*n), d.MustAlloc(4*n)
		if eager {
			av, bv := make([]float32, n), make([]float32, n)
			for i := range av {
				av[i], bv[i] = genA(i), genB(i)
			}
			if d.WriteF32(a, av) != nil || d.WriteF32(b, bv) != nil {
				t.Fatal("WriteF32 failed")
			}
		} else {
			mustFill(t, d, a, genA)
			mustFill(t, d, b, genB)
		}
		res, err := Launch(d, LaunchSpec{Kernel: k, Grid: D1(n / 32), Block: D1(32),
			Params: []uint64{a.Addr, b.Addr, c.Addr, n}}, Config{SampleSMs: d.Arch.NumSMs, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res, d.MemorySnapshot()
	}
	ref, refMem := run(1, false)
	if ref.Host.FilledPages != 2 {
		t.Errorf("Workers=1 FilledPages = %d, want 2", ref.Host.FilledPages)
	}
	eager, eagerMem := run(1, true)
	if eager.Host.FilledPages != 0 || !reflect.DeepEqual(eagerMem, refMem) {
		t.Errorf("eager device: FilledPages %d, image equal %v; want 0, true",
			eager.Host.FilledPages, reflect.DeepEqual(eagerMem, refMem))
	}
	for range 3 {
		res, mem := run(4, false)
		if res.Host.FilledPages != 2 {
			t.Errorf("Workers=4 FilledPages = %d, want 2", res.Host.FilledPages)
		}
		res.Host, eager.Host = HostStats{}, HostStats{}
		if !reflect.DeepEqual(eager, res) || !reflect.DeepEqual(refMem, mem) {
			t.Fatal("Workers=4 launch over pending pages differs from the eager sequential one")
		}
	}
}

// TestFillLaterFillKeepsWrittenNeighbour: a page already filled and then
// written is pending again after a Fill of a neighbouring buffer on it;
// filling it applies only the new generator, not the earlier one over the
// written word.
func TestFillLaterFillKeepsWrittenNeighbour(t *testing.T) {
	d := NewDevice(gpu.V100())
	a, b := d.MustAlloc(256), d.MustAlloc(256)
	mustFill(t, d, a, func(i int) float32 { return 1 })
	if err := d.WriteF32(a, []float32{42}); err != nil {
		t.Fatal(err)
	}
	mustFill(t, d, b, func(i int) float32 { return 2 })
	wantF32(t, "a", readF32(t, d, a, 64), func(i int) float32 {
		if i == 0 {
			return 42
		}
		return 1
	})
	wantF32(t, "b", readF32(t, d, b, 64), func(int) float32 { return 2 })
}
