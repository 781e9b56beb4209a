package sim

import (
	"context"
	"math"
	"sync"
	"testing"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
)

// recordTwins records a one-dimensional launch of kernel body on a V100
// with two sampled SMs on two workers, so either SM may seal first and
// match the other while it still records. body gets the builder, the
// block index and the thread's global index; param 0 is a buffer of
// bufBytes.
func recordTwins(t *testing.T, blocks, threads, bufBytes int, body func(b *kasm.Builder, ctaid, gtid kasm.VReg)) *Recording {
	t.Helper()
	b := kasm.NewBuilder("twins", "sm_70", "twins.cu")
	b.NumParams(1)
	ctaid := b.CtaidX()
	body(b, ctaid, b.IMad(kasm.VR(ctaid), kasm.VR(b.NTidX()), kasm.VR(b.TidX())))
	b.Exit()
	k := compile(t, b, codegen.Options{})
	dev := NewDevice(gpu.V100())
	buf := dev.MustAlloc(bufBytes)
	spec := LaunchSpec{Kernel: k, Grid: D1(blocks), Block: D1(threads), Params: []uint64{buf.Addr}}
	_, rec, err := Record(context.Background(), dev, spec, Config{SampleSMs: 2, Workers: 2})
	if err != nil || rec == nil || rec.SMs() != 2 {
		t.Fatalf("record: %v (recording %v)", err, rec)
	}
	return rec
}

// twinned reports whether Twin proves one of the two SMs the other's on
// arch; whichever sealed second is the candidate. Where it does, both
// SMs' replays must finish at the same cycle, bit for bit.
func twinned(t *testing.T, rec *Recording, arch gpu.Arch) bool {
	t.Helper()
	for j := range 2 {
		if i := rec.Twin(arch, j); i != j {
			fi, _, erri := rec.Finish(context.Background(), arch, i)
			fj, _, errj := rec.Finish(context.Background(), arch, j)
			if erri != nil || errj != nil || math.Float64bits(fi) != math.Float64bits(fj) {
				t.Errorf("SM %d is proved SM %d's twin but finishes at %v (%v), not %v (%v)", j, i, fj, errj, fi, erri)
			}
			return true
		}
	}
	return false
}

// TestTwinBuffersMovedApart: each of two 4-warp blocks reads a word per
// thread from one array and writes a word per thread at twice the stride
// into another, so from SM 0 to SM 1 the first array's lines move by 4
// and the second's by 8, every sector at its offset. The SMs are twins
// under every perturbation but issue_width/up, where 8 schedulers split
// the 4-warp gidBase apart.
func TestTwinBuffersMovedApart(t *testing.T) {
	rec := recordTwins(t, 2, 128, 3*256*4, func(b *kasm.Builder, _, gtid kasm.VReg) {
		x := b.Ldg(b.IMadWide(kasm.VR(b.Shl(kasm.VR(gtid), 2)), kasm.VImm(1), b.ParamPtr(0)), 0, 4, false)
		b.Stg(b.IMadWide(kasm.VR(b.Shl(kasm.VR(gtid), 3)), kasm.VImm(1), b.ParamPtr(0)), 1024, x, 4)
	})
	for _, p := range gpu.Perturbations() {
		if got, want := twinned(t, rec, p.Apply(gpu.V100())), p.ID() != "issue_width/up"; got != want {
			t.Errorf("%s: twins proved %v, want %v", p.ID(), got, want)
		}
	}
}

// TestTwinRefusesCrowdedSet: thread t of block b loads line 8b + (t mod
// 8) · stride twice, the second time once the first load is back; lines
// are 1 apart on block 0 and 256 (32 KiB) apart on block 1. The streams are
// equal up to the renaming, but block 1's eight lines crowd one set of
// the V100's four-way L1, where the second loads miss again, and block
// 0's spread over eight, where they hit: the recorded L1 must be refused,
// and the doubled one, where they take two sets of four, proved.
func TestTwinRefusesCrowdedSet(t *testing.T) {
	rec := recordTwins(t, 2, 128, 8<<15+1<<10, func(b *kasm.Builder, ctaid, _ kasm.VReg) {
		stride := b.IMad(kasm.VR(ctaid), kasm.VImm(1<<15-1<<7), kasm.VImm(1<<7))
		off := b.IMad(kasm.VR(b.And(kasm.VR(b.TidX()), kasm.VImm(7))), kasm.VR(stride), kasm.VR(b.Shl(kasm.VR(ctaid), 10)))
		addr := b.IMadWide(kasm.VR(off), kasm.VImm(1), b.ParamPtr(0))
		again := b.IMadWide(kasm.VR(b.Ldg(addr, 0, 4, false)), kasm.VImm(0), addr)
		b.Stg(addr, 0, b.Ldg(again, 0, 4, false), 4)
	})
	f0, _, _ := rec.Finish(context.Background(), gpu.V100(), 0)
	if f1, _, _ := rec.Finish(context.Background(), gpu.V100(), 1); f0 == f1 {
		t.Errorf("both SMs finish at %v: the crowded set does not show", f0)
	}
	if twinned(t, rec, gpu.V100()) {
		t.Error("twins proved on the recorded L1, where one SM's lines crowd one set")
	}
	if !twinned(t, rec, perturbed(t, "l1_capacity/up")) {
		t.Error("twins refused on the doubled L1, where no set of either SM is oversubscribed")
	}
}

// TestTwinRefusesSchedulerShift: three 4-warp blocks per SM put SM 1's
// first warp at gidBase 12, a multiple of the V100's 4 schedulers and of
// issue_width/down's 2 but not of issue_width/up's 8, where the two SMs'
// warps fall to different schedulers.
func TestTwinRefusesSchedulerShift(t *testing.T) {
	blocks := 3 * gpu.V100().NumSMs
	rec := recordTwins(t, blocks, 128, blocks*128*4, func(b *kasm.Builder, _, gtid kasm.VReg) {
		addr := b.IMadWide(kasm.VR(b.Shl(kasm.VR(gtid), 2)), kasm.VImm(1), b.ParamPtr(0))
		b.Stg(addr, 0, b.Ldg(addr, 0, 4, false), 4)
	})
	if !twinned(t, rec, gpu.V100()) || !twinned(t, rec, perturbed(t, "issue_width/down")) {
		t.Error("twins refused where the gidBase is a multiple of the scheduler count")
	}
	if twinned(t, rec, perturbed(t, "issue_width/up")) {
		t.Error("twins proved on 8 schedulers with the gidBase 12 apart")
	}
}

// TestTwinRefusesSharedAddresses: the same shared-memory store and load
// per thread, at the same offset on both blocks — twins — or shifted by
// the block index, which moves no bank conflict but changes the words.
func TestTwinRefusesSharedAddresses(t *testing.T) {
	for _, shift := range []bool{false, true} {
		rec := recordTwins(t, 2, 128, 256, func(b *kasm.Builder, ctaid, _ kasm.VReg) {
			sh := b.AllocShared(130 * 4)
			off := b.Shl(kasm.VR(b.TidX()), 2)
			if shift {
				off = b.IAdd(kasm.VR(off), kasm.VR(b.Shl(kasm.VR(ctaid), 2)))
			}
			b.Sts(off, sh, b.Lds(off, sh, 4), 4)
		})
		if got := twinned(t, rec, gpu.V100()); got == shift {
			t.Errorf("shared offsets shifted by the block index %v: twins proved %v", shift, got)
		}
	}
}

// TestTwinRefusesSectorShift: every warp loads sector 0 of its block's
// line and then, on block 0, sector 1 — a second miss — or, on block 1,
// sector 0 again — a hit. Block 0's line maps to block 1's, so only the
// sectors' offsets within it tell the two SMs apart, and their finishes
// differ.
func TestTwinRefusesSectorShift(t *testing.T) {
	rec := recordTwins(t, 2, 128, 256, func(b *kasm.Builder, ctaid, _ kasm.VReg) {
		off := b.IAdd(kasm.VR(b.Shl(kasm.VR(b.And(kasm.VR(b.TidX()), kasm.VImm(7))), 2)), kasm.VR(b.Shl(kasm.VR(ctaid), 7)))
		addr := b.IMadWide(kasm.VR(off), kasm.VImm(1), b.ParamPtr(0))
		second := b.IMadWide(kasm.VR(b.Shl(kasm.VR(ctaid), 5)), kasm.VImm(-1), addr)
		x := b.Ldg(addr, 0, 4, false)
		b.Stg(addr, 0, b.IAdd(kasm.VR(x), kasm.VR(b.Ldg(second, 32, 4, false))), 4)
	})
	if twinned(t, rec, gpu.V100()) {
		t.Error("twins proved with a sector at another offset of its line")
	}
}

// TestReplayFreeListConcurrent: Finish calls on one recording share its
// free list of replayed SMs' state; four goroutines replaying every cell
// at once must each get the finish a lone replay gets, bit for bit, so a
// state reset wrongly or handed to two replays shows.
func TestReplayFreeListConcurrent(t *testing.T) {
	blocks := 3 * gpu.V100().NumSMs
	rec := recordTwins(t, blocks, 128, blocks*128*8, func(b *kasm.Builder, _, gtid kasm.VReg) {
		addr := b.IMadWide(kasm.VR(b.Shl(kasm.VR(gtid), 3)), kasm.VImm(1), b.ParamPtr(0))
		b.Stg(addr, 0, b.Ldg(addr, 0, 4, false), 4)
	})
	ctx := context.Background()
	perts := gpu.Perturbations()
	want := make([]float64, len(perts)*rec.SMs())
	for k := range want {
		want[k], _, _ = rec.Finish(ctx, perts[k/rec.SMs()].Apply(gpu.V100()), k%rec.SMs())
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range want {
				k := (n + g*5) % len(want)
				got, _, err := rec.Finish(ctx, perts[k/rec.SMs()].Apply(gpu.V100()), k%rec.SMs())
				if err != nil || math.Float64bits(got) != math.Float64bits(want[k]) {
					t.Errorf("%s, SM %d: %v (%v) concurrently, %v alone", perts[k/rec.SMs()].ID(), k%rec.SMs(), got, err, want[k])
				}
			}
		}()
	}
	wg.Wait()
}
