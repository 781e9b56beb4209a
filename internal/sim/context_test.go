package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"gpuscout/internal/gpu"
)

// TestLaunchContextCancelled: an already-cancelled context aborts the
// launch with an error satisfying errors.Is(err, context.Canceled).
func TestLaunchContextCancelled(t *testing.T) {
	k := loopSumKernel(t, 10)
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * 64 * 10)
	out := dev.MustAlloc(4 * 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := LaunchContext(ctx, dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(64),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLaunchContextDeadline: a deadline expiring mid-simulation
// interrupts a long launch instead of letting it run to completion.
func TestLaunchContextDeadline(t *testing.T) {
	k := loopSumKernel(t, 20000) // long-running loop
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * 64 * 20000)
	out := dev.MustAlloc(4 * 64 * 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := LaunchContext(ctx, dev, LaunchSpec{
		Kernel: k, Grid: D1(8), Block: D1(64),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v — the poll is not interrupting the loop", elapsed)
	}
}

// TestLaunchNilContext: Launch (and a nil ctx) behave as Background.
func TestLaunchNilContext(t *testing.T) {
	k := loopSumKernel(t, 5)
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * 64 * 5)
	out := dev.MustAlloc(4 * 64)
	if _, err := LaunchContext(nil, dev, LaunchSpec{ //nolint:staticcheck // nil ctx tolerance is the contract under test
		Kernel: k, Grid: D1(1), Block: D1(64),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{}); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
}
