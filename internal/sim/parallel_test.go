package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
)

func TestBlocksForSM(t *testing.T) {
	cases := []struct {
		name   string
		grid   Dim3
		smID   int
		numSMs int
		want   []Dim3
	}{
		{
			// Zero dims normalize to 1: a single block for SM 0.
			name: "empty grid", grid: Dim3{}, smID: 0, numSMs: 4,
			want: []Dim3{{X: 0, Y: 0, Z: 0}},
		},
		{
			// Grid smaller than the SM count: trailing SMs get nothing.
			name: "grid smaller than SM count", grid: D1(2), smID: 3, numSMs: 4,
			want: nil,
		},
		{
			name: "grid smaller than SM count, covered SM", grid: D1(2), smID: 1, numSMs: 4,
			want: []Dim3{{X: 1}},
		},
		{
			// Round robin: SM 1 of 4 over 10 blocks gets linear 1, 5, 9.
			name: "1-D round robin", grid: D1(10), smID: 1, numSMs: 4,
			want: []Dim3{{X: 1}, {X: 5}, {X: 9}},
		},
		{
			// 3-D grid, X-major rasterization: linear 1 and 7 of a 2x2x2
			// grid are (1,0,0) and (1,1,1).
			name: "3-D grid", grid: Dim3{X: 2, Y: 2, Z: 2}, smID: 1, numSMs: 6,
			want: []Dim3{{X: 1, Y: 0, Z: 0}, {X: 1, Y: 1, Z: 1}},
		},
		{
			// 3-D grid with mixed extents: SM 0 of 5 over a 3x2x2 grid
			// (12 blocks) gets linear 0, 5, 10.
			name: "3-D mixed extents", grid: Dim3{X: 3, Y: 2, Z: 2}, smID: 0, numSMs: 5,
			want: []Dim3{{X: 0, Y: 0, Z: 0}, {X: 2, Y: 1, Z: 0}, {X: 1, Y: 1, Z: 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := blocksForSM(tc.grid, tc.smID, tc.numSMs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("blocksForSM(%v, %d, %d) = %v, want %v",
					tc.grid, tc.smID, tc.numSMs, got, tc.want)
			}
		})
	}
}

// TestCountersMergeCoversAllFields fills every Counters field — every
// element of OpcodeDyn and every entry of PCStalls included — with
// distinct non-zero values by reflection and checks merge sums each one.
// A field added to Counters but forgotten in merge stays zero in the
// merged copy and fails here, keeping the parallel reduction honest.
func TestCountersMergeCoversAllFields(t *testing.T) {
	const insts = 3
	// walk visits every number under v, in a fixed order, with its path.
	var walk func(path string, v reflect.Value, visit func(string, reflect.Value))
	walk = func(path string, v reflect.Value, visit func(string, reflect.Value)) {
		switch v.Kind() {
		case reflect.Uint64, reflect.Float64:
			visit(path, v)
		case reflect.Array, reflect.Slice:
			for j := 0; j < v.Len(); j++ {
				walk(fmt.Sprintf("%s[%d]", path, j), v.Index(j), visit)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i), visit)
			}
		default:
			t.Fatalf("%s has unhandled kind %s — extend this test and merge", path, v.Kind())
		}
	}
	fill := func(c *Counters, base uint64) {
		n := base
		walk("Counters", reflect.ValueOf(c).Elem(), func(_ string, v reflect.Value) {
			n++
			if v.Kind() == reflect.Uint64 {
				v.SetUint(n)
			} else {
				v.SetFloat(float64(n) + 0.25)
			}
		})
	}
	numbers := func(c *Counters) (paths []string, vals []float64) {
		walk("Counters", reflect.ValueOf(c).Elem(), func(path string, v reflect.Value) {
			paths = append(paths, path)
			if v.Kind() == reflect.Uint64 {
				vals = append(vals, float64(v.Uint()))
			} else {
				vals = append(vals, v.Float())
			}
		})
		return paths, vals
	}

	a, b := newCounters(insts), newCounters(insts)
	fill(a, 1000)
	fill(b, 500000)
	merged := newCounters(insts)
	merged.merge(a)
	merged.merge(b)

	paths, got := numbers(merged)
	_, av := numbers(a)
	_, bv := numbers(b)
	// OpcodeDyn, then PCStalls' insts+1 vectors and StallCycles.
	if want := sass.NumOpcodes + (insts+2)*int(NumStalls); len(got) < want {
		t.Fatalf("walked %d numbers, want at least %d", len(got), want)
	}
	for i, path := range paths {
		if want := av[i] + bv[i]; got[i] != want {
			t.Errorf("merge missed %s: got %v, want %v", path, got[i], want)
		}
	}
}

// runParallelVecAdd launches the vecadd kernel across every V100 SM with
// the given worker cap and returns the Result plus a device memory
// snapshot.
func runParallelVecAdd(t *testing.T, k *sass.Kernel, workers int) (*Result, []byte) {
	t.Helper()
	dev := NewDevice(gpu.V100())
	const n = 100000
	a := dev.MustAlloc(4 * n)
	bb := dev.MustAlloc(4 * n)
	c := dev.MustAlloc(4 * n)
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = float32(i % 1024)
		bv[i] = 2 * float32(i%512)
	}
	if err := dev.WriteF32(a, av); err != nil {
		t.Fatal(err)
	}
	if err := dev.WriteF32(bb, bv); err != nil {
		t.Fatal(err)
	}
	res, err := Launch(dev, LaunchSpec{
		Kernel: k,
		Grid:   D1((n + 127) / 128),
		Block:  D1(128),
		Params: []uint64{a.Addr, bb.Addr, c.Addr, n},
	}, Config{SampleSMs: dev.Arch.NumSMs, Workers: workers})
	if err != nil {
		t.Fatalf("Launch(Workers=%d): %v", workers, err)
	}
	return res, dev.MemorySnapshot()
}

// TestParallelMatchesSequential is the in-package differential check:
// the same launch with Workers 1, 4 and GOMAXPROCS must produce
// bit-identical Results (Host excepted) and byte-identical device memory.
// internal/workloads runs the same comparison over every registered
// workload.
func TestParallelMatchesSequential(t *testing.T) {
	k := vecAddKernel(t)
	ref, refMem := runParallelVecAdd(t, k, 1)
	if ref.Host.Workers != 1 {
		t.Errorf("sequential Host.Workers = %d, want 1", ref.Host.Workers)
	}
	for _, workers := range []int{4, 0} {
		res, mem := runParallelVecAdd(t, k, workers)
		// Host timing legitimately differs run to run; blank it before
		// the deep comparison.
		res.Host = HostStats{}
		want := *ref
		want.Host = HostStats{}
		if !reflect.DeepEqual(&want, res) {
			t.Errorf("Workers=%d Result differs from sequential reference", workers)
		}
		if !reflect.DeepEqual(refMem, mem) {
			t.Errorf("Workers=%d device memory differs from sequential reference", workers)
		}
	}
}

// TestParallelAtomicSerialization hammers one global address from many
// concurrently simulated SMs. Lost updates (a data race in the atomic
// unit) would show up as a short sum; -race turns any unlocked access
// into a hard failure.
func TestParallelAtomicSerialization(t *testing.T) {
	k := atomicSumKernel(t, false)
	dev := NewDevice(gpu.V100())
	out := dev.MustAlloc(16)
	const blocks, threads = 8, 256
	// Each simulated block adds sum(0..255) = 32640 to out[0]; every
	// partial sum is an integer below 2^24, so float32 accumulation is
	// exact regardless of interleaving order.
	want := float32(blocks * (threads - 1) * threads / 2)
	for iter := 0; iter < 4; iter++ {
		if err := dev.WriteF32(out, []float32{0}); err != nil {
			t.Fatal(err)
		}
		res, err := Launch(dev, LaunchSpec{
			Kernel: k, Grid: D1(blocks * 8), Block: D1(threads),
			Params: []uint64{out.Addr},
		}, Config{SampleSMs: blocks, Workers: blocks})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		got, err := dev.ReadF32(out, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("iter %d: atomic sum = %v, want %v (lost updates between SMs)", iter, got[0], want)
		}
		if res.Counters.GlobalAtomics != blocks*threads {
			t.Errorf("GlobalAtomics = %d, want %d", res.Counters.GlobalAtomics, blocks*threads)
		}
	}
}

// TestParallelCancellation: a deadline expiring mid-launch aborts all
// concurrently simulated SMs promptly and surfaces the deadline error,
// not the collateral cancellations of sibling SMs.
func TestParallelCancellation(t *testing.T) {
	k := loopSumKernel(t, 20000)
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * 64 * 20000)
	out := dev.MustAlloc(4 * 64 * 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := LaunchContext(ctx, dev, LaunchSpec{
		Kernel: k, Grid: D1(8), Block: D1(64),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{SampleSMs: 8, Workers: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("parallel cancellation took %v — siblings not stopping", elapsed)
	}
}

// TestWorkersClamped: the effective worker count never exceeds the
// number of SMs that actually have work.
func TestWorkersClamped(t *testing.T) {
	k := loopSumKernel(t, 5)
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * 64 * 5)
	out := dev.MustAlloc(4 * 64)
	res, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(64),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.Workers != 1 {
		t.Errorf("Host.Workers = %d, want 1 (single SM with work)", res.Host.Workers)
	}
	if res.Host.WallSeconds <= 0 || res.Host.SMSeconds <= 0 {
		t.Errorf("host timing not recorded: %+v", res.Host)
	}
	if s := res.Host.Speedup(); s <= 0 {
		t.Errorf("Speedup() = %v, want > 0", s)
	}
}

// TestFirstSMError prefers a real failure over collateral cancellations.
func TestFirstSMError(t *testing.T) {
	real := errors.New("deadlock on SM 3")
	collateral := context.Canceled
	ctx := context.Background()
	if got := firstSMError(ctx, []error{nil, collateral, real}); !errors.Is(got, real) {
		t.Errorf("got %v, want the real error", got)
	}
	if got := firstSMError(ctx, []error{nil, collateral}); !errors.Is(got, context.Canceled) {
		t.Errorf("got %v, want the collateral cancellation as fallback", got)
	}
	if got := firstSMError(ctx, nil); got != nil {
		t.Errorf("got %v, want nil for no errors", got)
	}
	// When the caller's own ctx ended, the cancellation IS the real error.
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	wrapped := &wrapErr{context.Canceled}
	if got := firstSMError(ended, []error{wrapped, real}); !errors.Is(got, context.Canceled) {
		t.Errorf("got %v, want the first (cancellation) error when ctx ended", got)
	}
}

type wrapErr struct{ err error }

func (w *wrapErr) Error() string { return "sm: " + w.err.Error() }
func (w *wrapErr) Unwrap() error { return w.err }
