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
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"gpuscout"
	"gpuscout/internal/advisor"
	"gpuscout/internal/cubin"
	"gpuscout/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gpuscout:", err)
		os.Exit(1)
	}
}

// run is the whole CLI behind main, separated so tests can drive it
// in-process. Workload analyses lower to one advisor.Plan and go through
// advisor.Run — the same pipeline function the daemon executes — so
// -timeout, -stage-budgets, -verify and -sensitivity mean the same thing
// here as in a gpuscoutd request.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gpuscout", flag.ExitOnError)
	var (
		workload = fs.String("workload", "", "built-in workload to analyze (see -list)")
		scale    = fs.Int("scale", 0, "workload scale (0 = default)")
		cubinF   = fs.String("cubin", "", "cubin file to analyze (static analysis)")
		kernelN  = fs.String("kernel", "", "kernel name within the cubin (default: first)")
		sassF    = fs.String("sass", "", "SASS text file to analyze (static analysis)")
		dryRun   = fs.Bool("dry-run", false, "static SASS analysis only, no GPU involvement")
		verify   = fs.Bool("verify", false, "re-execute each recommendation's paired optimized variant and attach measured verdicts (workload analyses only)")
		sens     = fs.Bool("sensitivity", false, "re-simulate under the hardware perturbation matrix, attach dominant-resource sensitivity per finding, and rank findings by estimated speedup (workload analyses only)")
		slices   = fs.Bool("slice", false, "attach a backward def-use slice (producer chain) to each finding's highest-stall PC")
		archName = fs.String("arch", "sm_70", "GPU architecture (sm_70/V100, sm_60/P100, sm_80/A100; sm70/sm80 also accepted)")
		archCmp  = fs.String("arch-compare", "", "second architecture: analyze -workload on both and print the cross-arch finding comparison")
		sample   = fs.Int("sample-sms", 2, "SMs to simulate (sampling)")
		period   = fs.Float64("sampling-period", 0, "CUPTI sampling period in cycles (0 = default)")
		list     = fs.Bool("list", false, "list built-in workloads")
		compare  = fs.String("compare", "", "second workload: print old-vs-new metric comparison")
		srcView  = fs.Bool("source-view", false, "also print the correlated source/SASS view")
		jsonOut  = fs.String("json", "", "write the report as JSON to this file")
		region   = fs.String("region", "", "profile a source-line region, e.g. -region 5:10")
		timeout  = fs.Duration("timeout", 0, "overall analysis deadline (0 = none); with stage budgets, a slow stage degrades the report instead of failing it")
		budgetsF = fs.String("stage-budgets", "on", `"on" splits -timeout across stages (parse 5% / sim 55% / scout 15% / verify 25%); "off" disables staged degradation`)
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 with the usage text

	if *list {
		for _, n := range gpuscout.WorkloadNames() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	arch, err := gpuscout.ArchByName(*archName)
	if err != nil {
		return err
	}
	budgets, err := gpuscout.ParseStageBudgets(*budgetsF)
	if err != nil {
		return err
	}
	opts := gpuscout.Options{
		DryRun:         *dryRun,
		SamplingPeriod: *period,
		Sim:            gpuscout.SimConfig{SampleSMs: *sample},
		Budgets:        budgets,
		StallSlices:    *slices,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// A CLI analysis is a daemon request spelled as flags, whichever of
	// the three source forms it names: the same shape rules apply (one
	// source; -verify, -sensitivity and -arch-compare need a workload and
	// exclude -dry-run), with the daemon's own messages.
	if *workload == "" && *cubinF == "" && *sassF == "" {
		fs.Usage()
		os.Exit(2)
	}
	req := service.AnalyzeRequest{Workload: *workload, Scale: *scale, Kernel: *kernelN, ArchCompare: *archCmp,
		DryRun: *dryRun, Verify: *verify, Sensitivity: *sens}
	if *cubinF != "" {
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

	// Uploaded kernels are analyzed statically, every kernel of a cubin
	// unless -kernel selects one (the paper's Configuration stage
	// disassembles the whole cubin).
	var kernels []*gpuscout.Kernel
	switch {
	case req.Workload != "":
		if *archCmp != "" {
			other, err := gpuscout.ArchByName(*archCmp)
			if err != nil {
				return err
			}
			cmp, err := gpuscout.AnalyzeWorkloadCrossArch(ctx, *workload, *scale, arch, other, opts, *verify, *sens)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, cmp.Render())
			if *jsonOut != "" {
				data, err := cmp.MarshalJSON()
				if err != nil {
					return err
				}
				return os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
			}
			return nil
		}

		out, err := advisor.Run(ctx, advisor.Plan{
			Arch: arch, Opts: opts, Workload: *workload, Scale: *scale,
			Verify: *verify, Sensitivity: *sens,
		})
		if err != nil {
			return err
		}
		rep := out.Report
		fmt.Fprintln(stdout, rep.Render())
		if v := out.Verified; v != nil {
			fmt.Fprintf(stdout, "verification: %d recommendation(s) re-executed — %d confirmed, %d neutral, %d refuted\n",
				v.Checked, v.Confirmed, v.Neutral, v.Refuted)
		}
		if swept := rep.Sensitivity; swept != nil {
			fmt.Fprintf(stdout, "sensitivity: %d perturbation(s) re-simulated — %s\n",
				len(swept.Deltas), swept.Summary())
		}
		if *srcView {
			fmt.Fprintln(stdout, rep.SourceView())
		}
		if *jsonOut != "" {
			if err := gpuscout.WriteReportJSON(*jsonOut, rep); err != nil {
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
			rep2, err := gpuscout.AnalyzeWorkloadContext(ctx, *compare, *scale, arch, opts)
			if err != nil {
				return err
			}
			cmp, err := gpuscout.Compare(rep, rep2)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, cmp.Render())
		}
		return nil

	case len(req.Cubin) > 0:
		bin, err := cubin.Decode(req.Cubin)
		if err != nil {
			return err
		}
		if len(bin.Kernels) == 0 {
			return fmt.Errorf("cubin %s holds no kernels", *cubinF)
		}
		kernels = bin.Kernels
		if req.Kernel != "" {
			k, err := bin.Kernel(req.Kernel)
			if err != nil {
				return err
			}
			kernels = []*gpuscout.Kernel{k}
		}
		if *jsonOut != "" && len(kernels) != 1 {
			return fmt.Errorf("-json writes one report, but cubin %s holds %d kernels: select one with -kernel", *cubinF, len(kernels))
		}

	default:
		k, err := gpuscout.ParseSASS(req.SASS)
		if err != nil {
			return err
		}
		kernels = []*gpuscout.Kernel{k}
	}
	for _, k := range kernels {
		rep, err := gpuscout.DryRun(arch, k)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep.Render())
		if *jsonOut != "" {
			if err := gpuscout.WriteReportJSON(*jsonOut, rep); err != nil {
				return err
			}
		}
	}
	return nil
}
