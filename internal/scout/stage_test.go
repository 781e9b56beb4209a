package scout

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	_ "gpuscout/internal/cubin" // registers cubin.decode for TestDetectorSitesRegistered
	"gpuscout/internal/faultinject"
	"gpuscout/internal/gpu"
)

func TestGuardPassesThroughSuccess(t *testing.T) {
	if err := Guard(StageScout, "x", func() error { return nil }); err != nil {
		t.Fatalf("Guard on success: %v", err)
	}
}

func TestGuardConvertsPanic(t *testing.T) {
	err := Guard(StageScout, "scout.detector.demo", func() error {
		panic("boom")
	})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("Guard returned %T, want *StageError", err)
	}
	if se.Stage != StageScout || se.Site != "scout.detector.demo" {
		t.Errorf("attribution = %s/%s", se.Stage, se.Site)
	}
	if se.PanicValue != "boom" {
		t.Errorf("PanicValue = %v", se.PanicValue)
	}
	if len(se.Stack) == 0 {
		t.Error("no stack captured")
	}
	if !strings.Contains(se.Error(), "panic at scout.detector.demo: boom") {
		t.Errorf("Error() = %q", se.Error())
	}
	if !se.Transient() {
		t.Error("a real panic should be transient")
	}
}

func TestGuardReattributesInjectedPanic(t *testing.T) {
	err := Guard(StageSim, "outer.site", func() error {
		panic(&faultinject.InjectedPanic{Site: "inner.site"})
	})
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("Guard returned %T", err)
	}
	if se.Site != "inner.site" {
		t.Errorf("Site = %s, want the injected fault's own site", se.Site)
	}
}

func TestGuardWrapsPlainError(t *testing.T) {
	inner := errors.New("bad input")
	err := Guard(StageParse, "cubin.decode", func() error { return inner })
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("Guard returned %T", err)
	}
	if se.Site != "cubin.decode" || !errors.Is(err, inner) {
		t.Errorf("wrap lost site or cause: %v", err)
	}
	if se.Transient() {
		t.Error("a deterministic input error must not be transient")
	}

	// An error that is already a StageError keeps its original attribution.
	err2 := Guard(StageScout, "outer", func() error { return se })
	var se2 *StageError
	if !errors.As(err2, &se2) || se2.Site != "cubin.decode" {
		t.Errorf("double-wrap changed attribution: %v", err2)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain error", errors.New("x"), false},
		{"plain stage error", &StageError{Stage: StageSim, Site: "s", Err: errors.New("x")}, false},
		{"panic", &StageError{Stage: StageSim, Site: "s", Err: errors.New("panic: x"), PanicValue: "x"}, true},
		{"panic caused by cancel", &StageError{Stage: StageSim, Site: "s", Err: fmt.Errorf("panic: %w", context.Canceled), PanicValue: context.Canceled}, false},
		{"injected fault", &StageError{Stage: StageSim, Site: "s", Err: fmt.Errorf("faultinject: %w", faultinject.ErrInjected)}, true},
		{"deadline", &StageError{Stage: StageSim, Site: "s", Err: context.DeadlineExceeded}, false},
		{"wrapped transient", fmt.Errorf("job: %w", &StageError{Stage: StageSim, Site: "s", Err: errors.New("p"), PanicValue: "p"}), true},
	}
	for _, tc := range cases {
		if got := TransientError(tc.err); got != tc.want {
			t.Errorf("%s: TransientError = %t, want %t", tc.name, got, tc.want)
		}
	}
}

func TestDegradationFor(t *testing.T) {
	se := &StageError{Stage: StageScout, Site: "scout.detector.x", Err: errors.New("p"), PanicValue: "p"}
	d := DegradationFor(StageScout, "fallback.site", se, false)
	if d.Kind != DegradePanic || d.Site != "scout.detector.x" {
		t.Errorf("panic entry = %+v", d)
	}
	// Panic classification wins even if the stage deadline also expired.
	d = DegradationFor(StageScout, "fallback.site", se, true)
	if d.Kind != DegradePanic {
		t.Errorf("panic+expired entry = %+v", d)
	}
	d = DegradationFor(StageSim, "sim.launch", context.DeadlineExceeded, false)
	if d.Kind != DegradeTimeout {
		t.Errorf("deadline entry = %+v", d)
	}
	d = DegradationFor(StageSim, "sim.launch", errors.New("broke"), true)
	if d.Kind != DegradeTimeout {
		t.Errorf("expired-slice entry = %+v", d)
	}
	d = DegradationFor(StageSim, "sim.launch", errors.New("broke"), false)
	if d.Kind != DegradeError || d.Detail != "broke" {
		t.Errorf("plain entry = %+v", d)
	}
}

func TestStageBudgetSlices(t *testing.T) {
	// A deadline 1000s out: each slice is its fraction of the time left,
	// less the microseconds this test takes to ask.
	ctx, cancel := context.WithTimeout(context.Background(), 1000*time.Second)
	defer cancel()
	for stage, want := range map[string]time.Duration{
		StageParse: 50 * time.Second, StageSim: 550 * time.Second,
		StageScout: 150 * time.Second, StageVerify: 250 * time.Second,
		"bogus": 0,
	} {
		if got, ok := StageSlice(ctx, stage); !ok || got > want || got < want-want/1000 {
			t.Errorf("%s slice = %v (deadline %v), want %v", stage, got, ok, want)
		}
	}
	if got, ok := StageSlice(context.Background(), StageVerify); ok || got != 0 {
		t.Errorf("a context without a deadline has a verify slice of %v", got)
	}
}

func TestDetectorSitesRegistered(t *testing.T) {
	sites := faultinject.Sites()
	have := make(map[string]bool, len(sites))
	for _, s := range sites {
		have[s] = true
	}
	for _, a := range AllAnalysesFor(gpu.V100()) {
		if site := DetectorSite(a.Name()); !have[site] {
			t.Errorf("detector site %s not registered", site)
		}
	}
	for _, s := range []string{"scout.parse", "scout.correlate", "sim.launch", "cupti.collect", "ncu.collect", "cubin.decode"} {
		if !have[s] {
			t.Errorf("site %s not registered", s)
		}
	}
}
