package scout

import (
	"strings"
	"testing"

	"gpuscout/internal/sim"
)

func TestSourceView(t *testing.T) {
	rep := analyzeWorkload(t, "mixbench_sp_naive", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	view := rep.SourceView()
	for _, want := range []string{
		"Source/SASS view",
		"tmps[j] = g_data[gid * GRANULARITY + j];", // quoted source
		"LDG.E.SYS",                                // SASS under the line
		"findings: vectorized_load",                // margin marker
		"#",                                        // heat bar
	} {
		if !strings.Contains(view, want) {
			t.Errorf("source view missing %q\n%s", want, view)
		}
	}
	// Every attributed source line appears with its number.
	for _, line := range []string{"   5 ", "   7 ", "  13 "} {
		if !strings.Contains(view, line) {
			t.Errorf("source view missing line marker %q", line)
		}
	}
}

func TestSourceViewDryRun(t *testing.T) {
	// Without dynamic data the view still renders source + SASS.
	rep := analyzeWorkload(t, "jacobi_naive", 128, Options{DryRun: true})
	view := rep.SourceView()
	if !strings.Contains(view, "jacobi_step") && !strings.Contains(view, "LDG") {
		t.Errorf("dry-run source view broken:\n%s", view)
	}
	if strings.Contains(view, "%") && strings.Contains(view, "<-") {
		t.Error("dry-run view shows stall data it cannot have")
	}
}

func TestHottestLines(t *testing.T) {
	rep := analyzeWorkload(t, "mixbench_sp_naive", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	hot := rep.HottestLines
	if len(hot) == 0 {
		t.Fatal("no hottest lines")
	}
	if len(hot) > 10 {
		t.Fatalf("limit ignored: %d entries", len(hot))
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Samples > hot[i-1].Samples {
			t.Error("hottest lines not sorted")
		}
	}
	// The memory-bound loop body must top the profile (lines 7/8).
	if top := hot[0].Line; top != 7 && top != 8 {
		t.Errorf("hottest line = %d, want the loop body (7 or 8)", top)
	}
	var totalShare float64
	for _, h := range hot {
		totalShare += h.Share
		if h.Source == "" {
			t.Errorf("line %d lacks source text", h.Line)
		}
	}
	if totalShare <= 0 || totalShare > 1.0001 {
		t.Errorf("shares out of range: %v", totalShare)
	}
	// Dry runs have no heat data.
	dry := analyzeWorkload(t, "mixbench_sp_naive", 4, Options{DryRun: true})
	if dry.HottestLines != nil {
		t.Error("dry run returned heat data")
	}
}
