// Command gpuscout is the analysis tool CLI, mirroring the workflow of
// the paper's tool (§3.1): point it at a kernel — a built-in case-study
// workload, a cubin, or disassembled SASS text — and it prints the
// three-pillar report (static SASS analysis, warp stalls, metrics).
//
//	gpuscout -workload sgemm_naive -scale 256        full analysis
//	gpuscout -workload sgemm_naive -dry-run          static analysis only
//	gpuscout -cubin prog.cubin -kernel _Z5sgemm...   static analysis of a cubin
//	gpuscout -sass kernel.sass                       static analysis of SASS text
//	gpuscout -list                                   list built-in workloads
//	gpuscout -compare other_workload                 metric diff vs -workload
//	gpuscout -workload w -arch-compare sm80          cross-arch finding diff
//	gpuscout sim -workload sgemm_naive -disas        raw simulation data
//	gpuscout experiments -run fig2 -fast             the paper's evaluation
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"gpuscout"
	"gpuscout/internal/advisor"
	"gpuscout/internal/cubin"
	"gpuscout/internal/scout"
	"gpuscout/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpuscout:", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a command line that names no work to do: main exits 2 on
// it, as the flag package does on a bad flag.
type usageError string

func (e usageError) Error() string { return string(e) }

// analyze runs one request the way a gpuscoutd worker does: the shared
// lowering (service.Resolve), then the one pipeline function per plan —
// two plans for -arch-compare, base architecture first.
func analyze(ctx context.Context, req service.AnalyzeRequest) ([]*scout.Report, error) {
	plans, err := service.Resolve(req, 0)
	if err != nil {
		return nil, err
	}
	reps := make([]*scout.Report, len(plans))
	for i, p := range plans {
		if reps[i], err = advisor.Run(ctx, p); err != nil {
			return nil, err
		}
	}
	return reps, nil
}

// run is the whole CLI behind main, separated so tests can drive it
// in-process. The flags spell one daemon request, which takes the
// daemon's path — Validate, service.Resolve, advisor.Run — so every flag
// means the same thing here as its field does in a gpuscoutd body, and
// -json writes the bytes the daemon would answer with. A first argument
// of "sim" or "experiments" selects that subcommand instead.
func run(args []string, stdout io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "sim":
			return runSim(args[1:], stdout)
		case "experiments":
			return runExperiments(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("gpuscout", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "built-in workload to analyze (see -list)")
		scale    = fs.Int("scale", 0, "workload scale (0 = default)")
		cubinF   = fs.String("cubin", "", "cubin file to analyze (static analysis)")
		kernelN  = fs.String("kernel", "", "kernel name within the cubin (default: every kernel)")
		sassF    = fs.String("sass", "", "SASS text file to analyze (static analysis)")
		dryRun   = fs.Bool("dry-run", false, "static SASS analysis only, no GPU involvement")
		verify   = fs.Bool("verify", false, "re-execute each recommendation's paired optimized variant and attach measured verdicts (workload analyses only)")
		sens     = fs.Bool("sensitivity", false, "re-simulate under the hardware perturbation matrix, attach dominant-resource sensitivity per finding, and rank findings by estimated speedup (workload analyses only)")
		slices   = fs.Bool("slice", false, "attach a backward def-use slice (producer chain) to each finding's highest-stall PC")
		archName = fs.String("arch", "sm_70", "GPU architecture (sm_70/V100, sm_60/P100, sm_80/A100; sm70/sm80 also accepted)")
		archCmp  = fs.String("arch-compare", "", "second architecture: analyze -workload on both and print the cross-arch finding comparison")
		sample   = fs.Int("sample-sms", 0, "SMs to simulate (sampling; 0 = the simulator's default, as for a daemon request without sample_sms)")
		period   = fs.Float64("sampling-period", 0, "CUPTI sampling period in cycles (0 = default)")
		list     = fs.Bool("list", false, "list built-in workloads")
		compare  = fs.String("compare", "", "second workload: print old-vs-new metric comparison")
		srcView  = fs.Bool("source-view", false, "also print the correlated source/SASS view")
		jsonOut  = fs.String("json", "", "write the report as JSON to this file")
		region   = fs.String("region", "", "profile a source-line region, e.g. -region 5:10")
		timeout  = fs.Duration("timeout", 0, "overall analysis deadline (0 = none), split across stages (parse 5% / sim 55% / scout 15% / verify 25%) so a slow stage degrades the report instead of failing it")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage text

	if *list {
		for _, n := range gpuscout.WorkloadNames() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// The same shape rules apply as at the daemon (one source; -verify,
	// -sensitivity and -arch-compare need a workload and exclude
	// -dry-run), with the daemon's own messages.
	if *workload == "" && *cubinF == "" && *sassF == "" {
		fs.Usage()
		return usageError("nothing to analyze: give -workload, -cubin or -sass")
	}
	req := service.AnalyzeRequest{Workload: *workload, Scale: *scale, Kernel: *kernelN,
		Arch: *archName, ArchCompare: *archCmp, DryRun: *dryRun, Verify: *verify, Sensitivity: *sens,
		StallSlices: *slices, SamplingPeriod: *period, SampleSMs: *sample}
	if *cubinF != "" {
		var err error
		if req.Cubin, err = os.ReadFile(*cubinF); err != nil {
			return err
		}
	}
	if *sassF != "" {
		text, err := os.ReadFile(*sassF)
		if err != nil {
			return err
		}
		req.SASS = string(text)
	}
	if err := req.Validate(); err != nil {
		return err
	}
	// These three read the dynamic data of one workload report; anywhere
	// else they would be dropped, so they are refused instead.
	if (req.Workload == "" || req.ArchCompare != "") && (*compare != "" || *region != "" || *srcView) {
		return fmt.Errorf("-compare, -region and -source-view need a single workload report (not an uploaded kernel or -arch-compare)")
	}

	// A request names one kernel; a cubin without -kernel is one request
	// per kernel it holds (the paper's Configuration stage disassembles
	// the whole cubin).
	kernels := []string{req.Kernel}
	if len(req.Cubin) > 0 && req.Kernel == "" {
		bin, err := cubin.Decode(req.Cubin)
		if err != nil {
			return err
		}
		if len(bin.Kernels) == 0 {
			return fmt.Errorf("cubin %s holds no kernels", *cubinF)
		}
		kernels = kernels[:0]
		for _, k := range bin.Kernels {
			kernels = append(kernels, k.Name)
		}
		if *jsonOut != "" && len(kernels) != 1 {
			return fmt.Errorf("-json writes one report, but cubin %s holds %d kernels: select one with -kernel", *cubinF, len(kernels))
		}
	}
	for _, req.Kernel = range kernels {
		reps, err := analyze(ctx, req)
		if err != nil {
			return err
		}
		rep := reps[0]
		var doc interface {
			json.Marshaler
			Render() string
		} = rep
		if len(reps) == 2 {
			doc = scout.CompareReports(rep, reps[1])
		}
		fmt.Fprintln(stdout, doc.Render())
		if len(reps) == 1 {
			// A static fallback was not verified; its ledger says so.
			if req.Verify && !rep.DryRun {
				checked, by := 0, map[scout.Verdict]int{}
				for i := range rep.Findings {
					if v := rep.Findings[i].Verification; v != nil {
						checked++
						by[v.Verdict]++
					}
				}
				fmt.Fprintf(stdout, "verification: %d recommendation(s) re-executed — %d confirmed, %d neutral, %d refuted\n",
					checked, by[scout.VerdictConfirmed], by[scout.VerdictNeutral], by[scout.VerdictRefuted])
			}
			if swept := rep.Sensitivity; swept != nil {
				fmt.Fprintf(stdout, "sensitivity: %d perturbation(s) re-simulated — %s\n",
					len(swept.Deltas), swept.Summary())
			}
			if !rep.DryRun {
				// Host wall time: measured, so beside the report, not in it.
				fmt.Fprintf(stdout, "static analysis: %.3g Mcycles of host time at the modeled clock\n", rep.OverheadSASSCycles/1e6)
			}
		}
		if *srcView {
			fmt.Fprintln(stdout, rep.SourceView())
		}
		if *jsonOut != "" {
			data, err := doc.MarshalJSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		if *region != "" {
			var from, to int
			if _, err := fmt.Sscanf(*region, "%d:%d", &from, &to); err != nil {
				return fmt.Errorf("bad -region %q (want from:to): %w", *region, err)
			}
			prof, err := rep.ProfileRegion(from, to)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, prof.Render())
		}
		if *compare != "" {
			other := req
			other.Workload, other.Verify, other.Sensitivity = *compare, false, false
			newer, err := analyze(ctx, other)
			if err != nil {
				return err
			}
			cmp, err := gpuscout.Compare(rep, newer[0])
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, cmp.Render())
		}
	}
	return nil
}
