package scout

import (
	"encoding/json"
	"testing"

	"gpuscout/internal/sim"
)

func TestReportJSON(t *testing.T) {
	rep := analyzeWorkload(t, "spill_pressure", 8, Options{Sim: sim.Config{SampleSMs: 1}})
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	var got JSONReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if got.Kernel != rep.Kernel || got.DryRun {
		t.Errorf("header wrong: %+v", got)
	}
	if len(got.Findings) == 0 {
		t.Fatal("no findings serialized")
	}
	spill := false
	for i, f := range got.Findings {
		if f.Analysis == "register_spilling" {
			spill = true
			if len(f.Sites) == 0 || f.Sites[0].Line == 0 || f.Sites[0].SASS == "" {
				t.Errorf("spill sites incomplete: %+v", f.Sites)
			}
			if f.Severity != rep.Findings[i].Severity || len(f.StallSummary) == 0 {
				t.Error("dynamic correlation missing from JSON")
			}
		}
	}
	if !spill {
		t.Error("register_spilling not serialized")
	}
	var sev Severity
	if err := json.Unmarshal([]byte(`"LOUD"`), &sev); err == nil {
		t.Error("an unknown severity decoded without error")
	}
	if got.KernelCycles <= 0 || len(got.Metrics) == 0 || len(got.StallShares) == 0 {
		t.Error("dynamic sections missing")
	}
	if len(got.HottestLines) == 0 {
		t.Error("hottest lines missing")
	}
	if got.Overhead() == nil {
		t.Error("overhead missing")
	}

	// Dry runs omit the dynamic sections.
	dry := analyzeWorkload(t, "spill_pressure", 4, Options{DryRun: true})
	data, err = dry.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var dgot JSONReport
	if err := json.Unmarshal(data, &dgot); err != nil {
		t.Fatal(err)
	}
	if !dgot.DryRun || dgot.KernelCycles != 0 || len(dgot.Metrics) != 0 {
		t.Errorf("dry-run JSON carries dynamic data: %+v", dgot)
	}
}

// Overhead is a test accessor (the field is a pointer for omitempty).
func (r *JSONReport) Overhead() *JSONOverhead { return r.OverheadCycles }
