package sass_test

import (
	"errors"
	"reflect"
	"testing"

	"gpuscout/internal/gpu"
	"gpuscout/internal/sass"
	"gpuscout/internal/workloads"
)

// FuzzParseSASS feeds arbitrary text to the SASS parser, seeded with the
// canonical printed SASS of every registered workload on sm_70 and sm_80.
// The parser must never panic and must agree with the reference parser
// (oracle_test.go): the same inputs accepted, reflect.DeepEqual kernels,
// a rejection on the same text line. Anything accepted must print as the
// reference printer prints it and survive a print -> parse -> print
// round trip byte-identically (the printed form is the canonical fixed
// point; the first parse is allowed to normalize its input).
func FuzzParseSASS(f *testing.F) {
	for _, w := range buildAll(f, gpu.V100()) {
		f.Add(sass.Print(w.Kernel))
	}
	f.Add("")
	f.Add("garbage\n")
	for _, w := range buildAll(f, gpu.A100()) {
		f.Add(sass.Print(w.Kernel))
	}
	f.Fuzz(func(t *testing.T, text string) {
		k, err := sass.Parse(text)
		want, wantErr := oracleParse(text)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Parse error %v, reference parser error %v", err, wantErr)
		}
		if err != nil {
			var got, ref *sass.ParseError
			if !errors.As(err, &got) || !errors.As(wantErr, &ref) || got.TextLine != ref.TextLine {
				t.Fatalf("Parse rejects with %v, reference parser with %v", err, wantErr)
			}
			return // rejecting malformed input is fine; panicking is not
		}
		if !reflect.DeepEqual(k, want) {
			t.Fatalf("Parse and the reference parser disagree:\n%#v\n%#v", k, want)
		}
		printed := sass.Print(k)
		if ref := oraclePrint(k); printed != ref {
			t.Fatalf("Print differs from the reference printer:\n--- Print\n%s\n--- reference\n%s", printed, ref)
		}
		k2, err := sass.Parse(printed)
		if err != nil {
			t.Fatalf("printed kernel does not re-parse: %v\n%s", err, printed)
		}
		if again := sass.Print(k2); again != printed {
			t.Fatalf("print not a fixed point:\n--- first\n%s\n--- second\n%s", printed, again)
		}
	})
}

// buildAll builds every registered workload at its default scale.
func buildAll(tb testing.TB, arch gpu.Arch) []*workloads.Workload {
	var out []*workloads.Workload
	for _, name := range workloads.Names() {
		w, err := workloads.BuildArch(name, 0, arch)
		if err != nil {
			tb.Fatalf("build %s for %s: %v", name, arch.SM, err)
		}
		out = append(out, w)
	}
	return out
}
