package codegen

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/kasm"
	"gpuscout/internal/sass"
)

var update = flag.Bool("update", false, "rewrite testdata/compile_pinned.txt")

// pinnedPrograms is the size of the seeded population TestCompilePinned
// compiles.
const pinnedPrograms = 240

// genProgram builds one seeded kasm program in the shape of
// bench/corpus.go's synthKernel: a pointer prologue, then about size
// operations over a bounded pool of live values fed by global loads and
// fp32 arithmetic. With ext it also draws 8-byte loads, partial element
// writes into wide vregs, LDG→STS staging pairs (which async-copy
// targets fuse into LDGSTS), guarded instructions, fp64 round trips,
// forward branches and barriers, and wraps the middle of the body in a
// counted loop when loop is set.
func genProgram(rng *rand.Rand, idx, size int, arch string, ext, loop bool) *kasm.Program {
	b := kasm.NewBuilder(fmt.Sprintf("_Z5synth%06dPKfPf", idx), arch, "synth.cu")
	b.NumParams(2)
	b.Line(1)
	gid := b.IMad(kasm.VR(b.CtaidX()), kasm.VR(b.NTidX()), kasm.VR(b.TidX()))
	in, out := b.ParamPtr(0), b.ParamPtr(1)
	off := b.Shl(kasm.VR(gid), 2)
	src := b.IMadWide(kasm.VR(off), kasm.VImm(1), in)
	dst := b.IMadWide(kasm.VR(off), kasm.VImm(1), out)
	acc := b.Ldg(src, 0, 4, false)
	vals := []kasm.VReg{acc, b.MovImmF32(float32(idx%97) + 1)}
	var wide []kasm.VReg // 4-word loads, targets of partial writes
	var sid kasm.VReg    // shared-memory address of the thread's slot
	if ext {
		b.AllocShared(4096)
		sid = b.Shl(kasm.VR(b.TidX()), 4)
	}
	pick := func() kasm.VOperand { return kasm.VR(vals[rng.Intn(len(vals))]) }
	push := func(v kasm.VReg) {
		if len(vals) < 10 {
			vals = append(vals, v)
		} else {
			vals[2+rng.Intn(len(vals)-2)] = v
		}
	}
	kinds := 8
	if ext {
		kinds = 15
	}
	labels := 0
	op := func(n int) {
		b.Line(2 + n/4)
		switch rng.Intn(kinds) {
		case 0:
			push(b.Ldg(src, int64(4*rng.Intn(64)), 4, rng.Intn(2) == 0))
		case 1:
			q := b.Ldg(src, int64(16*rng.Intn(16)), 16, false)
			b.FFmaTo(kasm.VR(acc), kasm.VRElem(q, rng.Intn(4)), pick(), kasm.VR(acc))
			if len(wide) < 2 {
				wide = append(wide, q)
			}
		case 2, 3:
			b.FFmaTo(kasm.VR(acc), pick(), pick(), kasm.VR(acc))
		case 4:
			push(b.FMul(pick(), pick()))
		case 5:
			push(b.FAdd(pick(), pick()))
		case 6:
			push(b.I2F(kasm.VR(b.IAdd(kasm.VR(gid), kasm.VImm(int64(rng.Intn(1024)))))))
		case 7:
			push(b.I2F(kasm.VR(b.F2I(pick()))))
		case 8:
			d := b.Ldg(src, int64(8*rng.Intn(32)), 8, rng.Intn(2) == 0)
			push(b.FAdd(kasm.VRElem(d, 0), kasm.VRElem(d, 1)))
		case 9:
			if len(wide) == 0 {
				push(b.FAdd(pick(), pick()))
				break
			}
			w := wide[rng.Intn(len(wide))]
			b.MovTo(kasm.VRElem(w, rng.Intn(4)), pick())
			b.FFmaTo(kasm.VR(acc), kasm.VRElem(w, rng.Intn(4)), pick(), kasm.VR(acc))
		case 10:
			width := 4 << rng.Intn(3)
			slot := int64(16 * rng.Intn(256))
			v := b.Ldg(src, int64(width*rng.Intn(16)), width, false)
			if rng.Intn(4) == 0 {
				b.FFmaTo(kasm.VR(acc), pick(), pick(), kasm.VR(acc))
			}
			b.Sts(sid, slot, v, width)
			push(b.Lds(sid, slot, 4))
		case 11:
			p := b.ISetp("LT", kasm.VR(gid), kasm.VImm(int64(rng.Intn(4096))))
			b.WithPred(p, rng.Intn(2) == 0, func() {
				b.FAddTo(kasm.VR(acc), kasm.VR(acc), pick())
			})
			b.FreePred(p)
		case 12:
			x := b.F2FWiden(pick())
			push(b.F2FNarrow(kasm.VR(b.DAdd(kasm.VR(x), kasm.VR(x)))))
		case 13:
			p := b.ISetp("GE", kasm.VR(gid), kasm.VImm(int64(rng.Intn(4096))))
			skip := fmt.Sprintf("skip%d", labels)
			labels++
			b.BraIf(p, false, skip)
			b.FreePred(p)
			b.FFmaTo(kasm.VR(acc), pick(), pick(), kasm.VR(acc))
			push(b.FMul(pick(), pick()))
			b.LabelName(skip)
		case 14:
			b.Bar()
		}
	}
	n := 0
	if loop {
		for ; n < size/4; n++ {
			op(n)
		}
		i := b.MovImm(0)
		b.LabelName("loop")
		for ; n < size*3/4; n++ {
			op(n)
		}
		b.IAddTo(kasm.VR(i), kasm.VR(i), kasm.VImm(1))
		p := b.ISetp("LT", kasm.VR(i), kasm.VImm(int64(2+rng.Intn(6))))
		b.BraIf(p, false, "loop")
		b.FreePred(p)
	}
	for ; n < size; n++ {
		op(n)
	}
	b.Stg(dst, 0, acc, 4)
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		panic(err)
	}
	return prog
}

// pinnedCase is program i of the pinned population: both architectures
// (sm_80 fuses staging pairs), budgets from the architectural maximum
// down to 8 (multi-round spilling), straight-line synthKernel shapes
// and extended bodies with and without a loop.
func pinnedCase(i int) (*kasm.Program, Options) {
	rng := rand.New(rand.NewSource(int64(i)))
	archs := []gpu.Arch{gpu.V100(), gpu.A100()}
	arch := archs[i%2]
	budget := []int{0, 16, 12, 8}[i/2%4]
	ext := i/8%3 != 0
	loop := i/8%3 == 2
	return genProgram(rng, i, 24+rng.Intn(200), arch.SM, ext, loop), Options{Arch: arch, MaxRegs: budget}
}

// TestCompilePinned pins what Compile makes of the seeded population:
// per program a sha256 of the printed SASS with NumRegs and LocalBytes,
// or the error. The workload registry's kernels (TestWorkloadsPinned)
// are 23 hand-written shapes; these reach the spill rounds, loops,
// partial writes and fusions a refactor of the allocator can break.
// Regenerate (-update) only in a change that means to move the output.
func TestCompilePinned(t *testing.T) {
	var got strings.Builder
	for i := 0; i < pinnedPrograms; i++ {
		p, opts := pinnedCase(i)
		fmt.Fprintf(&got, "%03d %s maxregs=%d insts=%d ", i, opts.Arch.SM, opts.MaxRegs, len(p.Insts))
		k, err := Compile(p, opts)
		if err != nil {
			fmt.Fprintf(&got, "error: %v\n", err)
			continue
		}
		sum := sha256.Sum256([]byte(sass.Print(k)))
		fmt.Fprintf(&got, "regs=%d local=%d %s\n", k.NumRegs, k.LocalBytes, hex.EncodeToString(sum[:]))
	}
	path := filepath.Join("testdata", "compile_pinned.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("program moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
