package sass_test

import (
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/workloads"
)

// benchKernels are the inputs of the printer and parser benchmarks and
// allocation pins: a shared-memory tiled GEMM (long unrolled body, many
// modifiers) and a spilling kernel (local-memory traffic).
var benchKernels = []string{"sgemm_shared", "spill_pressure"}

func benchKernel(tb testing.TB, name string) *sass.Kernel {
	w, err := workloads.Build(name, 0)
	if err != nil {
		tb.Fatalf("build %s: %v", name, err)
	}
	return w.Kernel
}

var sinkText string
var sinkKernel *sass.Kernel

func BenchmarkPrint(b *testing.B) {
	for _, name := range benchKernels {
		k := benchKernel(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkText = sass.Print(k)
			}
		})
	}
}

// BenchmarkParse times Parse and, under "reference", the strings.Split
// parser it replaced (oracle_test.go) on the same text.
func BenchmarkParse(b *testing.B) {
	parsers := []struct {
		name  string
		parse func(string) (*sass.Kernel, error)
	}{{"Parse", sass.Parse}, {"reference", oracleParse}}
	for _, name := range benchKernels {
		text := sass.Print(benchKernel(b, name))
		for _, p := range parsers {
			b.Run(name+"/"+p.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(text)))
				for i := 0; i < b.N; i++ {
					k, err := p.parse(text)
					if err != nil {
						b.Fatal(err)
					}
					sinkKernel = k
				}
			})
		}
	}
}

// TestPrintParseAllocs pins the allocation counts: Print allocates its
// buffer and its string, Parse the kernel, its instruction slice and a
// few operand and modifier chunks whatever the instruction count.
func TestPrintParseAllocs(t *testing.T) {
	const parseAllocsPerInst = 0.05
	for _, name := range benchKernels {
		k := benchKernel(t, name)
		if n := testing.AllocsPerRun(20, func() { sinkText = sass.Print(k) }); n > 2 {
			t.Errorf("%s: Print allocates %.0f times per kernel, want <= 2", name, n)
		}
		text := sass.Print(k)
		n := testing.AllocsPerRun(20, func() { sinkKernel, _ = sass.Parse(text) })
		if per := n / float64(len(k.Insts)); per > parseAllocsPerInst {
			t.Errorf("%s: Parse allocates %.0f times for %d instructions (%.3f each), want <= %g each",
				name, n, len(k.Insts), per, parseAllocsPerInst)
		}
	}
}

// TestPrintMatchesReference compares the printer with the reference
// printer on every workload as built, not only on parsed kernels: the
// whole text, and each instruction's String.
func TestPrintMatchesReference(t *testing.T) {
	for _, arch := range []gpu.Arch{gpu.V100(), gpu.A100()} {
		for _, w := range buildAll(t, arch) {
			k := w.Kernel
			if got, want := sass.Print(k), oraclePrint(k); got != want {
				t.Fatalf("%s/%s: Print differs from the reference printer:\n%s\n---\n%s", arch.SM, k.Name, got, want)
			}
			for i := range k.Insts {
				in := &k.Insts[i]
				if got, want := in.String(), oracleInstString(in); got != want {
					t.Fatalf("%s/%s: Inst.String %q, reference %q", arch.SM, k.Name, got, want)
				}
			}
		}
	}
}
