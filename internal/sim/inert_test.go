package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
)

// recordStride records one block of threads on a V100, thread i touching
// the word i<<shift bytes into a global buffer (load and store back) or,
// with shared, into shared memory. One block runs on one SM, so the
// recording's whole proof is inert(_, 0).
func recordStride(t *testing.T, threads int, shift int64, shared bool) *Recording {
	t.Helper()
	b := kasm.NewBuilder("stride", "sm_70", "stride.cu")
	b.NumParams(1)
	off := b.Shl(kasm.VR(b.TidX()), shift)
	if shared {
		sh := b.AllocShared(threads << shift)
		b.Sts(off, sh, b.Lds(off, sh, 4), 4)
	} else {
		addr := b.IMadWide(kasm.VR(off), kasm.VImm(1), b.ParamPtr(0))
		b.Stg(addr, 0, b.Ldg(addr, 0, 4, false), 4)
	}
	b.Exit()
	k := compile(t, b, codegen.Options{})
	dev := NewDevice(gpu.V100())
	buf := dev.MustAlloc(threads << shift)
	_, rec, err := Record(context.Background(), dev, LaunchSpec{Kernel: k, Grid: D1(1), Block: D1(threads), Params: []uint64{buf.Addr}}, Config{})
	if err != nil || rec == nil {
		t.Fatalf("record: %v (recording %v)", err, rec)
	}
	return rec
}

// perturbed returns the recorded arch under the perturbation id.
func perturbed(t *testing.T, id string) gpu.Arch {
	for _, p := range gpu.Perturbations() {
		if p.ID() == id {
			return p.Apply(gpu.V100())
		}
	}
	t.Fatalf("no perturbation %s", id)
	return gpu.Arch{}
}

// TestInertRefusesOtherFields: the proof covers L1Bytes, L2Bytes and
// SharedBanks only. An arch that differs from the recorded one in any
// other field — found by reflection, so a field added to gpu.Arch is
// covered here without editing the test — is refused, even for a kernel
// every covered axis leaves inert.
func TestInertRefusesOtherFields(t *testing.T) {
	rec := recordStride(t, 32, 2, false)
	if !rec.inert(gpu.V100(), 0) {
		t.Fatal("the recorded arch itself is not proved inert")
	}
	arch := gpu.V100()
	covered := map[string]bool{"L1Bytes": true, "L2Bytes": true, "SharedBanks": true}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+v.Type().Field(i).Name
			if covered[name] {
				continue
			}
			old := reflect.ValueOf(f.Interface())
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name+".")
				continue
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float()*2 + 1)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				t.Fatalf("%s: no way to move a %s field", name, f.Kind())
			}
			if rec.inert(arch, 0) {
				t.Errorf("an arch whose %s differs from the recorded one is proved inert", name)
			}
			f.Set(old)
		}
	}
	walk(reflect.ValueOf(&arch).Elem(), "")
}

// TestInertL1SetOverflow: five lines 16 KiB apart share one set of the
// halved L1 (128 sets of 4 ways) and spread over two sets of the V100's
// 256 and 512: halving the L1 must be refused, doubling it proved. Five
// lines 32 KiB apart share one set of the V100's own L1, so the recording
// evicted and doubling the L1 must be refused as well.
func TestInertL1SetOverflow(t *testing.T) {
	rec := recordStride(t, gpu.V100().L1Ways+1, 14, false)
	if rec.inert(perturbed(t, "l1_capacity/down"), 0) {
		t.Error("l1_capacity/down proved inert with ways+1 lines in one set of the halved L1")
	}
	if !rec.inert(perturbed(t, "l1_capacity/up"), 0) {
		t.Error("l1_capacity/up refused though no set of either geometry overflows")
	}
	if recordStride(t, gpu.V100().L1Ways+1, 15, false).inert(perturbed(t, "l1_capacity/up"), 0) {
		t.Error("l1_capacity/up proved inert with ways+1 lines in one set of the recorded L1")
	}
}

// TestInertBankConflictDegree: 32 threads 64 bytes apart in shared memory
// conflict 16 ways on 32 banks and 32 ways on 16, so halving the banks
// must be refused; four threads 4 bytes apart cost one transaction on
// either, so it is proved.
func TestInertBankConflictDegree(t *testing.T) {
	down := perturbed(t, "shared_banks/down")
	if recordStride(t, 32, 6, true).inert(down, 0) {
		t.Error("shared_banks/down proved inert for a kernel whose conflict degree doubles on 16 banks")
	}
	if !recordStride(t, 4, 2, true).inert(down, 0) {
		t.Error("shared_banks/down refused for a conflict-free kernel")
	}
}

// TestFinishHonoursCancelOnProvedSM: an ended context fails Finish even
// where inert proves the SM and no replay would run, so a sweep whose
// budget expired does not ship a cell it should have timed out.
func TestFinishHonoursCancelOnProvedSM(t *testing.T) {
	rec := recordStride(t, 32, 2, false)
	if !rec.inert(gpu.V100(), 0) {
		t.Fatal("the recorded arch itself is not proved inert")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rec.Finish(ctx, gpu.V100(), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Finish under a cancelled context = %v, want context.Canceled", err)
	}
}
