package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gpuscout/internal/codegen"
	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

func compile(t *testing.T, b *kasm.Builder, opts codegen.Options) *sass.Kernel {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	k, err := codegen.Compile(p, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return k
}

// vecAddKernel: out[i] = a[i] + b[i] for i < n, with a bounds guard.
func vecAddKernel(t *testing.T) *sass.Kernel {
	b := kasm.NewBuilder("_Z6vecaddPfS_S_i", "sm_70", "vecadd.cu")
	b.NumParams(4)
	b.Line(2)
	tid := b.TidX()
	ctaid := b.CtaidX()
	ntid := b.NTidX()
	i := b.IMad(kasm.VR(ctaid), kasm.VR(ntid), kasm.VR(tid))
	b.Line(3)
	n := b.Param32(3)
	p := b.ISetp("GE", kasm.VR(i), kasm.VR(n))
	b.ExitPred(p, false)
	b.Line(4)
	pa := b.ParamPtr(0)
	pb := b.ParamPtr(1)
	pc := b.ParamPtr(2)
	off := b.Shl(kasm.VR(i), 2)
	addrA := b.IMadWide(kasm.VR(off), kasm.VImm(1), pa)
	addrB := b.IMadWide(kasm.VR(off), kasm.VImm(1), pb)
	addrC := b.IMadWide(kasm.VR(off), kasm.VImm(1), pc)
	va := b.Ldg(addrA, 0, 4, false)
	vb := b.Ldg(addrB, 0, 4, false)
	sum := b.FAdd(kasm.VR(va), kasm.VR(vb))
	b.Line(5)
	b.Stg(addrC, 0, sum, 4)
	b.Exit()
	return compile(t, b, codegen.Options{})
}

func TestVecAdd(t *testing.T) {
	k := vecAddKernel(t)
	dev := NewDevice(gpu.V100())
	const n = 1000 // deliberately not a multiple of the block size
	a := dev.MustAlloc(4 * n)
	bb := dev.MustAlloc(4 * n)
	c := dev.MustAlloc(4 * n)
	av := make([]float32, n)
	bv := make([]float32, n)
	for i := range av {
		av[i] = float32(i)
		bv[i] = 2 * float32(i)
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
	}, Config{SampleSMs: dev.Arch.NumSMs}) // sample every SM so all blocks run
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := dev.ReadF32(c, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 3*float32(i) {
			t.Fatalf("c[%d] = %v, want %v", i, got[i], 3*float32(i))
		}
	}
	if res.Cycles <= 0 {
		t.Error("zero cycles")
	}
	if res.Counters.GlobalLdInsts == 0 || res.Counters.GlobalStInsts == 0 {
		t.Error("no global traffic counted")
	}
	if res.Scale != 1 {
		t.Errorf("Scale = %v, want 1 with all SMs sampled", res.Scale)
	}
}

// loopSumKernel: out[gid] = sum(in[tid*len .. tid*len+len)), gid the
// global thread id, so the blocks of a multi-SM launch store disjoint words.
func loopSumKernel(t *testing.T, length int) *sass.Kernel {
	b := kasm.NewBuilder("_Z7loopsumPfS_", "sm_70", "loopsum.cu")
	b.NumParams(2)
	b.Line(2)
	tid := b.TidX()
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)
	base := b.IMul(kasm.VR(tid), kasm.VImm(int64(length*4)))
	addr := b.IMadWide(kasm.VR(base), kasm.VImm(1), in)
	i := b.MovImm(0)
	acc := b.MovImmF32(0)
	b.Line(4)
	b.LabelName("loop")
	v := b.Ldg(addr, 0, 4, false)
	b.FAddTo(kasm.VR(acc), kasm.VR(acc), kasm.VR(v))
	b.IAddTo(kasm.VRElem(addr, 0), kasm.VRElem(addr, 0), kasm.VImm(4))
	b.IAddTo(kasm.VR(i), kasm.VR(i), kasm.VImm(1))
	p := b.ISetp("LT", kasm.VR(i), kasm.VImm(int64(length)))
	b.BraIf(p, false, "loop")
	b.Line(6)
	gid := b.IMad(kasm.VR(b.CtaidX()), kasm.VR(b.NTidX()), kasm.VR(tid))
	outOff := b.Shl(kasm.VR(gid), 2)
	oaddr := b.IMadWide(kasm.VR(outOff), kasm.VImm(1), out)
	b.Stg(oaddr, 0, acc, 4)
	b.Exit()
	return compile(t, b, codegen.Options{})
}

func TestLoopSum(t *testing.T) {
	const threads, length = 64, 10
	k := loopSumKernel(t, length)
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * threads * length)
	out := dev.MustAlloc(4 * threads)
	vals := make([]float32, threads*length)
	for i := range vals {
		vals[i] = float32(i % 7)
	}
	if err := dev.WriteF32(in, vals); err != nil {
		t.Fatal(err)
	}
	_, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(threads),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := dev.ReadF32(out, threads)
	if err != nil {
		t.Fatal(err)
	}
	for tidx := 0; tidx < threads; tidx++ {
		var want float32
		for j := 0; j < length; j++ {
			want += vals[tidx*length+j]
		}
		if got[tidx] != want {
			t.Fatalf("out[%d] = %v, want %v", tidx, got[tidx], want)
		}
	}
}

// divergeKernel: out[i] = (i % 2 == 0) ? 10 : 20, via an if/else diamond.
func divergeKernel(t *testing.T) *sass.Kernel {
	b := kasm.NewBuilder("_Z7divergePf", "sm_70", "diverge.cu")
	b.NumParams(1)
	b.Line(2)
	tid := b.TidX()
	out := b.ParamPtr(0)
	bit := b.And(kasm.VR(tid), kasm.VImm(1))
	res := b.MovImmF32(0)
	p := b.ISetp("EQ", kasm.VR(bit), kasm.VImm(0))
	b.Line(3)
	b.BraIf(p, true, "odd") // branch if bit != 0
	b.MovTo(kasm.VR(res), kasm.VImm(int64(math.Float32bits(10))))
	b.Bra("join")
	b.Line(4)
	b.LabelName("odd")
	b.MovTo(kasm.VR(res), kasm.VImm(int64(math.Float32bits(20))))
	b.Line(5)
	b.LabelName("join")
	off := b.Shl(kasm.VR(tid), 2)
	addr := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	b.Stg(addr, 0, res, 4)
	b.Exit()
	return compile(t, b, codegen.Options{})
}

func TestDivergence(t *testing.T) {
	k := divergeKernel(t)
	dev := NewDevice(gpu.V100())
	out := dev.MustAlloc(4 * 64)
	_, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(64),
		Params: []uint64{out.Addr},
	}, Config{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := dev.ReadF32(out, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := float32(10)
		if i%2 == 1 {
			want = 20
		}
		if got[i] != want {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// sharedReverseKernel: out[i] = in[blockDim-1-i] within each block, via
// shared memory and a barrier.
func sharedReverseKernel(t *testing.T, blockSize int) *sass.Kernel {
	b := kasm.NewBuilder("_Z8sreversePfS_", "sm_70", "sreverse.cu")
	b.NumParams(2)
	sh := b.AllocShared(blockSize * 4)
	b.Line(2)
	tid := b.TidX()
	in := b.ParamPtr(0)
	out := b.ParamPtr(1)
	off := b.Shl(kasm.VR(tid), 2)
	iaddr := b.IMadWide(kasm.VR(off), kasm.VImm(1), in)
	v := b.Ldg(iaddr, 0, 4, false)
	b.Line(3)
	b.Sts(off, sh, v, 4)
	b.Line(4)
	b.Bar()
	b.Line(5)
	// roff = (blockSize-1)*4 - off, via IMAD with multiplier -1.
	rev := b.MovImm(int64((blockSize - 1) * 4))
	roff := b.IMad(kasm.VR(off), kasm.VImm(-1), kasm.VR(rev))
	rv := b.Lds(roff, sh, 4)
	b.Line(6)
	oaddr := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	b.Stg(oaddr, 0, rv, 4)
	b.Exit()
	return compile(t, b, codegen.Options{})
}

func TestSharedMemoryAndBarrier(t *testing.T) {
	const bs = 128
	k := sharedReverseKernel(t, bs)
	if k.SharedBytes < bs*4 {
		t.Fatalf("SharedBytes = %d", k.SharedBytes)
	}
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * bs)
	out := dev.MustAlloc(4 * bs)
	vals := make([]float32, bs)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := dev.WriteF32(in, vals); err != nil {
		t.Fatal(err)
	}
	res, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(bs),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := dev.ReadF32(out, bs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != vals[bs-1-i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], vals[bs-1-i])
		}
	}
	if res.Counters.SharedLdInsts == 0 || res.Counters.SharedStInsts == 0 {
		t.Error("shared traffic not counted")
	}
	if res.Counters.StallCycles[StallBarrier] <= 0 {
		t.Error("no barrier stalls recorded")
	}
}

// atomicSumKernel: every thread atomically adds its tid to out[0].
func atomicSumKernel(t *testing.T, shared bool) *sass.Kernel {
	name := "_Z7atomsumPf"
	if shared {
		name = "_Z8atomsumsPf"
	}
	b := kasm.NewBuilder(name, "sm_70", "atomsum.cu")
	b.NumParams(1)
	b.Line(2)
	tid := b.TidX()
	out := b.ParamPtr(0)
	v := b.I2F(kasm.VR(tid))
	if !shared {
		b.Line(3)
		b.RedAddF32(out, 0, v)
	} else {
		// Accumulate in shared memory, then every thread stores the
		// (identical) block total back to global memory.
		sh := b.AllocShared(16)
		zero := b.MovImmF32(0)
		shaddr := b.MovImm(0)
		b.Sts(shaddr, sh, zero, 4)
		b.Bar()
		b.Line(3)
		b.AtomsAddF32(shaddr, sh, v)
		b.Bar()
		rv := b.Lds(shaddr, sh, 4)
		b.Line(4)
		zoff := b.MovImm(0)
		stg := b.IMadWide(kasm.VR(zoff), kasm.VImm(1), out)
		b.RedAddF32(stg, 0, rv)
		_ = stg
	}
	b.Exit()
	return compile(t, b, codegen.Options{})
}

func TestGlobalAtomics(t *testing.T) {
	k := atomicSumKernel(t, false)
	dev := NewDevice(gpu.V100())
	out := dev.MustAlloc(16)
	if err := dev.WriteF32(out, []float32{0}); err != nil {
		t.Fatal(err)
	}
	const threads = 256
	res, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(2), Block: D1(threads / 2),
		Params: []uint64{out.Addr},
	}, Config{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := dev.ReadF32(out, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sum over both blocks of tid (0..127) = 2 * 127*128/2.
	want := float32(127 * 128)
	if got[0] != want {
		t.Errorf("atomic sum = %v, want %v", got[0], want)
	}
	if res.Counters.GlobalAtomics != threads {
		t.Errorf("GlobalAtomics = %d, want %d", res.Counters.GlobalAtomics, threads)
	}
}

func TestSpilledKernelCorrectness(t *testing.T) {
	// The same kernel compiled with and without spilling must agree.
	build := func(maxRegs int) *sass.Kernel {
		b := kasm.NewBuilder("_Z5spillPfS_", "sm_70", "spill.cu")
		b.NumParams(2)
		b.Line(2)
		in := b.ParamPtr(0)
		out := b.ParamPtr(1)
		const n = 20
		vals := make([]kasm.VReg, n)
		for i := 0; i < n; i++ {
			b.Line(3 + i)
			vals[i] = b.Ldg(in, int64(4*i), 4, false)
		}
		acc := b.MovImmF32(0)
		for i := 0; i < n; i++ {
			b.FFmaTo(kasm.VR(acc), kasm.VR(vals[i]), kasm.VImm(int64(math.Float32bits(float32(i+1)))), kasm.VR(acc))
		}
		b.Stg(out, 0, acc, 4)
		b.Exit()
		return compile(t, b, codegen.Options{MaxRegs: maxRegs})
	}
	run := func(k *sass.Kernel) (float32, *Result) {
		dev := NewDevice(gpu.V100())
		in := dev.MustAlloc(4 * 32)
		out := dev.MustAlloc(16)
		vals := make([]float32, 32)
		for i := range vals {
			vals[i] = float32(i) * 0.5
		}
		if err := dev.WriteF32(in, vals); err != nil {
			t.Fatal(err)
		}
		res, err := Launch(dev, LaunchSpec{
			Kernel: k, Grid: D1(1), Block: D1(32),
			Params: []uint64{in.Addr, out.Addr},
		}, Config{})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		got, err := dev.ReadF32(out, 1)
		if err != nil {
			t.Fatal(err)
		}
		return got[0], res
	}
	wide := build(0)
	tight := build(12)
	if ops := tight.CountOpcodes(); ops[sass.OpSTL] == 0 {
		t.Fatal("tight build did not spill")
	}
	wantVal, wideRes := run(wide)
	gotVal, tightRes := run(tight)
	if gotVal != wantVal {
		t.Errorf("spilled result %v != unspilled %v", gotVal, wantVal)
	}
	if tightRes.Counters.LocalLdSectors == 0 || tightRes.Counters.LocalStSectors == 0 {
		t.Error("no local traffic from spilled kernel")
	}
	if wideRes.Counters.LocalLdSectors != 0 {
		t.Error("unspilled kernel has local traffic")
	}
	// Spilling must slow the kernel down.
	if tightRes.Cycles <= wideRes.Cycles {
		t.Errorf("spilled kernel not slower: %v vs %v cycles", tightRes.Cycles, wideRes.Cycles)
	}
}

func TestTexture(t *testing.T) {
	// out[y*W+x] = tex2D(x, y) copies the texture.
	const W, H = 32, 8
	b := kasm.NewBuilder("_Z7texcopyPf", "sm_70", "texcopy.cu")
	b.NumParams(1)
	b.Line(2)
	tid := b.TidX() // x
	cta := b.CtaidX()
	out := b.ParamPtr(0)
	v := b.Tex2D(0, kasm.VR(tid), kasm.VR(cta))
	b.Line(3)
	lin := b.IMad(kasm.VR(cta), kasm.VImm(W), kasm.VR(tid))
	off := b.Shl(kasm.VR(lin), 2)
	addr := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	b.Stg(addr, 0, v, 4)
	b.Exit()
	k := compile(t, b, codegen.Options{})

	dev := NewDevice(gpu.V100())
	texBuf := dev.MustAlloc(4 * W * H)
	outBuf := dev.MustAlloc(4 * W * H)
	vals := make([]float32, W*H)
	for i := range vals {
		vals[i] = float32(i) * 0.25
	}
	if err := dev.WriteF32(texBuf, vals); err != nil {
		t.Fatal(err)
	}
	texID, err := dev.BindTexture2D(texBuf, W, H)
	if err != nil {
		t.Fatal(err)
	}
	if texID != 0 {
		t.Fatalf("texID = %d", texID)
	}
	res, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(H), Block: D1(W),
		Params: []uint64{outBuf.Addr},
	}, Config{SampleSMs: dev.Arch.NumSMs}) // sample every SM so all blocks run
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	got, err := dev.ReadF32(outBuf, W*H)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != vals[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
	if res.Counters.TexInsts == 0 || res.Counters.TexSectors == 0 {
		t.Error("texture traffic not counted")
	}
}

func TestStallAccountingInvariant(t *testing.T) {
	// Every live warp accrues exactly dt per advancement in exactly one
	// bucket, so the per-reason totals must sum to ActiveWarpCycles.
	k := loopSumKernel(t, 16)
	dev := NewDevice(gpu.V100())
	in := dev.MustAlloc(4 * 256 * 16)
	out := dev.MustAlloc(4 * 256)
	res, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(4), Block: D1(64),
		Params: []uint64{in.Addr, out.Addr},
	}, Config{})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	var sum float64
	for s := Stall(0); s < NumStalls; s++ {
		sum += res.Counters.StallCycles[s]
	}
	if diff := math.Abs(sum - res.Counters.ActiveWarpCycles); diff > 1e-6*sum+1 {
		t.Errorf("stall sum %v != active warp cycles %v", sum, res.Counters.ActiveWarpCycles)
	}
	// Per-PC integrals must sum to the same totals.
	var pcSum float64
	for _, arr := range res.Counters.PCStalls {
		for s := Stall(0); s < NumStalls; s++ {
			pcSum += arr[s]
		}
	}
	if diff := math.Abs(pcSum - sum); diff > 1e-6*sum+1 {
		t.Errorf("per-PC sum %v != total %v", pcSum, sum)
	}
	if res.AchievedOccupancy <= 0 || res.AchievedOccupancy > 1 {
		t.Errorf("AchievedOccupancy = %v", res.AchievedOccupancy)
	}
}

func TestLaunchErrors(t *testing.T) {
	k := vecAddKernel(t)
	dev := NewDevice(gpu.V100())
	if _, err := Launch(dev, LaunchSpec{Kernel: k, Grid: D1(0), Block: D1(32)}, Config{}); err == nil {
		t.Error("accepted empty grid")
	}
	if _, err := Launch(dev, LaunchSpec{Kernel: k, Grid: D1(1), Block: D1(2048)}, Config{}); err == nil {
		t.Error("accepted oversized block")
	}
	// Out-of-bounds access surfaces as an execution error with location.
	// (The 16-byte buffer is padded to 256 by alignment; 512 threads
	// reach far beyond it.)
	buf := dev.MustAlloc(16)
	_, err := Launch(dev, LaunchSpec{
		Kernel: k, Grid: D1(1), Block: D1(512),
		Params: []uint64{buf.Addr, buf.Addr, buf.Addr, 512},
	}, Config{})
	if err == nil {
		t.Error("out-of-bounds access not detected")
	}
	var ee *execError
	if err != nil && !asExecError(err, &ee) {
		t.Errorf("error %v is not an execError with location", err)
	}
}

// asExecError unwraps err looking for an *execError.
func asExecError(err error, target **execError) bool {
	for err != nil {
		if ee, ok := err.(*execError); ok {
			*target = ee
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestAllocHostBound: a device hands out at most MaxDeviceBytes, refuses
// the allocation that would cross it before backing it with host memory,
// and never grows its page table past the bound.
func TestAllocHostBound(t *testing.T) {
	d := NewDevice(gpu.V100())
	if _, err := d.Alloc(MaxDeviceBytes + 1); err == nil || !strings.Contains(err.Error(), "128 MiB") {
		t.Fatalf("oversized Alloc: err = %v, want one naming the 128 MiB bound", err)
	}
	if len(d.pages) != 0 {
		t.Fatalf("refused Alloc still grew the page table to %d pages", len(d.pages))
	}
	if _, err := d.Alloc(MaxDeviceBytes - 4096); err != nil {
		t.Fatalf("Alloc within the bound: %v", err)
	}
	if len(d.pages) > MaxDeviceBytes/pageBytes {
		t.Errorf("page table grew to %d pages, past the %d B bound", len(d.pages), MaxDeviceBytes)
	}
	if _, err := d.Alloc(4096); err != nil {
		t.Errorf("Alloc up to exactly the bound: %v", err)
	}
	if _, err := d.Alloc(1); err == nil {
		t.Error("Alloc past a full device succeeded")
	}
}

// TestRanBlocks: the blocks verification visits are exactly those dealt
// round-robin to the simulated SMs (block b runs on SM b mod NumSMs), in
// increasing order, whatever the grid's remainder.
func TestRanBlocks(t *testing.T) {
	for _, c := range []struct{ numSMs, simulated, n int }{
		{80, 2, 640}, {80, 2, 256}, {108, 2, 1024}, {80, 4, 3}, {4, 4, 10}, {4, 8, 10}, {0, 0, 5},
	} {
		r := &Result{NumSMs: c.numSMs, SimulatedSMs: c.simulated}
		var want []int
		for b := 0; b < c.n; b++ {
			if c.numSMs <= 0 || b%c.numSMs < c.simulated {
				want = append(want, b)
			}
		}
		if got := r.RanBlocks(c.n); !slices.Equal(got, want) {
			t.Errorf("%+v: RanBlocks = %v, want %v", c, got, want)
		}
	}
}
