package scout

import (
	"encoding/json"
	"fmt"
	"strings"

	"gpuscout/internal/ncu"
)

// MarshalJSON encodes the report indented. The local type has the fields
// without the method, so MarshalIndent encodes them instead of recursing.
func (r *Report) MarshalJSON() ([]byte, error) {
	type wire Report
	return json.MarshalIndent((*wire)(r), "", "  ")
}

// Render produces the text report printed to the terminal, following the
// three-section structure of the paper's Fig. 2/Fig. 5 sample outputs:
// SASS analysis, warp stalls, and metric analysis per finding, plus a
// kernel-wide data-movement summary.
func (r *Report) Render() string {
	var b strings.Builder
	bar := strings.Repeat("=", 78)
	thin := strings.Repeat("-", 78)

	fmt.Fprintf(&b, "%s\nGPUscout report — kernel %s (%s)", bar, r.Kernel, r.Arch)
	if r.DryRun {
		b.WriteString("  [dry run: static SASS analysis only]")
	}
	fmt.Fprintf(&b, "\n%s\n", bar)

	if len(r.Degradations) > 0 {
		fmt.Fprintf(&b, "\nDEGRADED REPORT — %d stage failure(s); results below are partial:\n", len(r.Degradations))
		for _, d := range r.Degradations {
			line := fmt.Sprintf("[%s/%s] %s", d.Stage, d.Kind, d.Site)
			if d.Detail != "" {
				line += ": " + d.Detail
			}
			fmt.Fprintf(&b, "  ! %s\n", wrap(line, 72, "    "))
		}
	}

	if len(r.Findings) == 0 {
		b.WriteString("No data-movement bottleneck patterns detected.\n")
	}
	for i := range r.Findings {
		f := &r.Findings[i]
		fmt.Fprintf(&b, "\n[%s] %s   (analysis: %s)\n", f.Severity, f.Title, f.Analysis)
		fmt.Fprintf(&b, "  Problem: %s\n", wrap(f.Problem, 74, "           "))
		fmt.Fprintf(&b, "  Advice:  %s\n", wrap(f.Recommendation, 74, "           "))
		if f.EstSpeedup > 0 {
			fmt.Fprintf(&b, "  Payoff:  estimated speedup ceiling %.2fx (relevant stalls are %.1f%% of kernel stall samples)\n",
				f.EstSpeedup, 100*f.RelevantStallShare)
		}
		if f.InLoop {
			b.WriteString("  Note:    pattern occurs inside a for-loop — repeated execution amplifies it\n")
		}
		if len(f.Sites) > 0 {
			b.WriteString("  Locations:\n")
			for _, s := range f.Sites {
				fmt.Fprintf(&b, "    %s:%d  %s\n", s.File, s.Line, s.SASS)
				if s.Note != "" {
					fmt.Fprintf(&b, "      > %s\n", s.Note)
				}
				if src := r.sourceLine(s.Line); src != "" {
					fmt.Fprintf(&b, "      source: %s\n", strings.TrimSpace(src))
				}
			}
		}
		if len(f.StallSummary) > 0 {
			fmt.Fprintf(&b, "  %s\n  Warp stalls (CUPTI PC sampling):\n", thin[:70])
			for _, line := range f.StallSummary {
				fmt.Fprintf(&b, "    %s\n", wrap(line, 72, "      "))
			}
		}
		if len(f.MetricSummary) > 0 {
			fmt.Fprintf(&b, "  %s\n  Metric analysis (ncu):\n", thin[:70])
			for _, line := range f.MetricSummary {
				fmt.Fprintf(&b, "    %s\n", wrap(line, 72, "      "))
			}
		}
		for _, sl := range f.StallSlices {
			fmt.Fprintf(&b, "  %s\n  Stall slice (producer chain for the stalled instruction):\n", thin[:70])
			fmt.Fprintf(&b, "    stall surfaces at pc %04x line %d: %s (%.0f samples)\n",
				sl.PC, sl.Line, sl.Stall, sl.Samples)
			for _, st := range sl.Steps {
				marker := fmt.Sprintf("via %s", st.Reg)
				if st.Depth == 0 {
					marker = "stalled here"
				}
				fmt.Fprintf(&b, "      [hop %d] %s:%d  %s   <- %s\n",
					st.Depth, st.File, st.Line, st.SASS, marker)
			}
		}
		if s := f.Sensitivity; s != nil {
			fmt.Fprintf(&b, "  %s\n  Sensitivity (kernel re-simulated under perturbed hardware):\n", thin[:70])
			for _, d := range s.Deltas {
				pct := 0.0
				if s.BaselineCycles > 0 {
					pct = 100 * d.Delta / s.BaselineCycles
				}
				fmt.Fprintf(&b, "    %-15s %-4s x%-4g %12.6g cycles (%+.2f%%)\n",
					d.Resource, d.Direction, d.Factor, d.Cycles, pct)
			}
			fmt.Fprintf(&b, "    %s\n", wrap(s.Summary(), 72, "      "))
		}
		if v := f.Verification; v != nil {
			fmt.Fprintf(&b, "  %s\n  Verification (recommendation re-executed):\n", thin[:70])
			fmt.Fprintf(&b, "    %s\n", wrap(v.Summary(), 72, "      "))
			if v.Change != "" {
				fmt.Fprintf(&b, "    applied change: %s\n", wrap(v.Change, 72, "      "))
			}
			for _, sd := range v.StallDeltas {
				fmt.Fprintf(&b, "    stall %-20s %5.1f%% -> %5.1f%% of stall samples\n",
					sd.Stall, 100*sd.Before, 100*sd.After)
			}
			for _, md := range v.MetricDeltas {
				rel := "new"
				if md.Before != 0 {
					rel = fmt.Sprintf("%+.1f%%", md.Delta())
				}
				fmt.Fprintf(&b, "    %-55s %12.6g -> %12.6g (%s)\n",
					md.Name, md.Before, md.After, rel)
			}
		}
	}

	if !r.DryRun && r.Metrics != nil {
		fmt.Fprintf(&b, "\n%s\nKernel-wide data movement (ncu metrics)\n%s\n", thin, thin)
		for _, name := range []string{
			"gpu__time_duration.sum",
			"sm__cycles_elapsed.max",
			"launch__registers_per_thread",
			"sm__warps_active.avg.pct_of_peak_sustained_active",
			"smsp__inst_executed.sum",
			"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum",
			"l1tex__t_sector_pipe_lsu_mem_global_op_ld_hit_rate.pct",
			"lts__t_sectors.sum",
			"lts__t_sector_hit_rate.pct",
			"dram__bytes_read.sum",
			"dram__bytes_write.sum",
		} {
			if v, ok := r.Metrics.Get(name); ok {
				unit := ""
				if m, found := ncu.Lookup(name); found {
					unit = m.Unit
				}
				fmt.Fprintf(&b, "  %-55s %14.6g %s\n", name, v, unit)
			}
		}
		fmt.Fprintf(&b, "\nOverhead: PC sampling %.3g Mcycles | metrics %.3g Mcycles (%d ncu passes) | bare kernel %.3g Mcycles\n",
			r.Overhead.Sampling/1e6, r.Overhead.Metrics/1e6, r.Metrics.Passes, r.KernelCycles/1e6)
	}

	if s := r.Sensitivity; s != nil {
		fmt.Fprintf(&b, "\n%s\nSensitivity matrix (kernel cycles under perturbed hardware)\n%s\n", thin, thin)
		fmt.Fprintf(&b, "  baseline: %.6g cycles\n", s.BaselineCycles)
		for _, d := range s.Deltas {
			pct := 0.0
			if s.BaselineCycles > 0 {
				pct = 100 * d.Delta / s.BaselineCycles
			}
			relief := " "
			if d.Helps {
				relief = "+" // the direction that relieves the resource
			}
			fmt.Fprintf(&b, "  %s%-15s %-4s x%-4g %14.6g cycles (%+.2f%%)\n",
				relief, d.Resource, d.Direction, d.Factor, d.Cycles, pct)
		}
		fmt.Fprintf(&b, "  %s\n", wrap(s.Summary(), 74, "    "))
	}
	return b.String()
}

// sourceLine fetches embedded source text for quoting.
func (r *Report) sourceLine(line int) string {
	if r.kernel == nil {
		return ""
	}
	return r.kernel.SourceLine(line)
}

// wrap soft-wraps s at width, indenting continuation lines.
func wrap(s string, width int, indent string) string {
	words := strings.Fields(s)
	if len(words) == 0 {
		return s
	}
	var b strings.Builder
	lineLen := 0
	for i, w := range words {
		if i > 0 {
			if lineLen+1+len(w) > width {
				b.WriteString("\n" + indent)
				lineLen = 0
			} else {
				b.WriteString(" ")
				lineLen++
			}
		}
		b.WriteString(w)
		lineLen += len(w)
	}
	return b.String()
}
