package gpuscout_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscout"
	"gpuscout/internal/kasm"
)

// buildScaleKernel constructs the quickstart kernel via the public API.
func buildScaleKernel(t testing.TB) *gpuscout.Kernel {
	t.Helper()
	b := gpuscout.NewKernelBuilder("_Z5scalePKfPff", "sm_70", "scale.cu")
	b.SetSource([]string{
		`__global__ void scale(const float* in, float* out, float f) {`,
		`    int i = blockIdx.x * blockDim.x + threadIdx.x;`,
		`    out[i] = in[i] * f;`,
		`}`,
	})
	b.NumParams(3)
	b.Line(2)
	tid := b.TidX()
	cta := b.CtaidX()
	ntid := b.NTidX()
	i := b.IMad(kasm.VR(cta), kasm.VR(ntid), kasm.VR(tid))
	b.Line(3)
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)
	f := b.Param32(2)
	off := b.Shl(kasm.VR(i), 2)
	src := b.IMadWide(kasm.VR(off), kasm.VImm(1), in)
	dst := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	v := b.Ldg(src, 0, 4, false)
	r := b.FMul(kasm.VR(v), kasm.VR(f))
	b.Stg(dst, 0, r, 4)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k, err := gpuscout.CompileKernel(prog, gpuscout.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestPublicAPIEndToEnd(t *testing.T) {
	k := buildScaleKernel(t)

	// SASS round-trip through the public API.
	text := gpuscout.PrintSASS(k)
	k2, err := gpuscout.ParseSASS(text)
	if err != nil {
		t.Fatalf("ParseSASS: %v", err)
	}
	if len(k2.Insts) != len(k.Insts) {
		t.Fatalf("round trip lost instructions: %d vs %d", len(k2.Insts), len(k.Insts))
	}

	// Run on the device.
	arch := gpuscout.V100()
	dev := gpuscout.NewDevice(arch)
	const n = 1024
	inBuf := dev.MustAlloc(4 * n)
	outBuf := dev.MustAlloc(4 * n)
	vals := make([]float32, n)
	for j := range vals {
		vals[j] = float32(j)
	}
	if err := dev.WriteF32(inBuf, vals); err != nil {
		t.Fatal(err)
	}
	spec := gpuscout.LaunchSpec{
		Kernel: k,
		Grid:   gpuscout.D1(n / 128),
		Block:  gpuscout.D1(128),
		Params: []uint64{inBuf.Addr, outBuf.Addr, uint64(math.Float32bits(3))},
	}
	res, err := gpuscout.Launch(dev, spec, gpuscout.SimConfig{SampleSMs: arch.NumSMs})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := dev.ReadF32(outBuf, n)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if got[j] != 3*float32(j) {
			t.Fatalf("out[%d] = %v", j, got[j])
		}
	}
	if res.Cycles <= 0 {
		t.Error("no cycles")
	}

	// Analyze via the public facade.
	rep, err := gpuscout.Analyze(context.Background(), arch, k, func(ctx context.Context, cfg gpuscout.SimConfig) (*gpuscout.SimResult, error) {
		d := gpuscout.NewDevice(arch)
		ib := d.MustAlloc(4 * n)
		ob := d.MustAlloc(4 * n)
		if err := d.WriteF32(ib, vals); err != nil {
			return nil, err
		}
		s := spec
		s.Params = []uint64{ib.Addr, ob.Addr, uint64(math.Float32bits(3))}
		return gpuscout.LaunchContext(ctx, d, s, cfg)
	}, gpuscout.Options{Sim: gpuscout.SimConfig{SampleSMs: 2}})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !strings.Contains(rep.Render(), "GPUscout report") {
		t.Error("report rendering broken")
	}
	// The in pointer is read-only: the §4.5 detector should fire.
	found := false
	for i := range rep.Findings {
		if rep.Findings[i].Analysis == "readonly_cache" {
			found = true
		}
	}
	if !found {
		t.Error("readonly_cache finding missing on const input pointer")
	}
}

func TestPublicCubinRoundTrip(t *testing.T) {
	k := buildScaleKernel(t)
	bin := gpuscout.NewBinary("sm_70")
	if err := bin.Add(k); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scale.cubin")
	if err := gpuscout.SaveCubin(path, bin); err != nil {
		t.Fatalf("SaveCubin: %v", err)
	}
	got, err := gpuscout.LoadCubin(path)
	if err != nil {
		t.Fatalf("LoadCubin: %v", err)
	}
	k2, err := got.Kernel(k.Name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := gpuscout.DryRun(gpuscout.P100(), k2)
	if err != nil {
		t.Fatalf("DryRun on loaded cubin: %v", err)
	}
	if !rep.DryRun {
		t.Error("not a dry run")
	}
	if _, err := gpuscout.LoadCubin(filepath.Join(t.TempDir(), "missing.cubin")); err == nil {
		t.Error("LoadCubin of missing file succeeded")
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := gpuscout.LoadCubin(path); err == nil {
		t.Error("LoadCubin accepted garbage")
	}
}

func TestPublicWorkloads(t *testing.T) {
	names := gpuscout.WorkloadNames()
	if len(names) < 13 {
		t.Errorf("only %d workloads registered: %v", len(names), names)
	}
	w, err := gpuscout.BuildWorkload("jacobi_naive", 128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gpuscout.RunWorkload(w, gpuscout.V100(), gpuscout.SimConfig{SampleSMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Error("no cycles")
	}
	if _, err := gpuscout.ArchByName("sm_99"); err == nil {
		t.Error("ArchByName accepted unknown arch")
	}
}

// TestPublicAnalyzeWorkload is the §5.1 loop through the one-call path:
// the naive Mixbench kernel draws the vectorized-load recommendation, its
// float4 fix does not, and the fix is faster.
func TestPublicAnalyzeWorkload(t *testing.T) {
	opts := gpuscout.Options{Sim: gpuscout.SimConfig{SampleSMs: 1}}
	fires := func(rep *gpuscout.Report) bool {
		for i := range rep.Findings {
			if rep.Findings[i].Analysis == "vectorized_load" {
				return true
			}
		}
		return false
	}
	naive, err := gpuscout.AnalyzeWorkload("mixbench_sp_naive", 8, gpuscout.V100(), opts)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := gpuscout.AnalyzeWorkload("mixbench_sp_vec4", 8, gpuscout.V100(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fires(naive) || fires(vec) {
		t.Errorf("vectorized_load fires on naive %t, on vec4 %t; want only the naive kernel", fires(naive), fires(vec))
	}
	cmp, err := gpuscout.Compare(naive, vec)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SpeedupX <= 1 {
		t.Errorf("vec4 over naive: %.3fx, want a speedup", cmp.SpeedupX)
	}
}
