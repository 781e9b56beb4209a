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
	var got Report
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
	for st := sim.Stall(0); st < sim.NumStalls; st++ {
		var back sim.Stall
		if text, err := st.MarshalText(); err != nil || back.UnmarshalText(text) != nil || back != st {
			t.Errorf("stall %s: text round trip gave %s", st, back)
		}
	}
	var stall sim.Stall
	if err := json.Unmarshal([]byte(`"napping"`), &stall); err == nil {
		t.Error("an unknown stall decoded without error")
	}
	if got.KernelCycles <= 0 || got.Metrics == nil || len(got.Metrics.Values) == 0 || len(got.StallShares) == 0 {
		t.Error("dynamic sections missing")
	}
	if len(got.HottestLines) == 0 || got.HottestLines[0].TopStall != rep.HottestLines[0].TopStall {
		t.Error("hottest lines missing")
	}
	if got.Overhead == nil || *got.Overhead != *rep.Overhead {
		t.Error("overhead missing")
	}

	// Dry runs omit the dynamic sections.
	dry := analyzeWorkload(t, "spill_pressure", 4, Options{DryRun: true})
	data, err = dry.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var dgot Report
	if err := json.Unmarshal(data, &dgot); err != nil {
		t.Fatal(err)
	}
	if !dgot.DryRun || dgot.KernelCycles != 0 || dgot.Metrics != nil {
		t.Errorf("dry-run JSON carries dynamic data: %+v", dgot)
	}
}
