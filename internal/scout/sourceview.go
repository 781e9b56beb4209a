package scout

import (
	"fmt"
	"strings"

	"gpuscout/internal/sim"
)

// SourceView renders the Fig. 7 'Source Code' + 'SASS Instructions'
// correlated view as text: every source line with its sampled-stall
// profile and the SASS instructions attributed to it, so the user can
// walk from a hot line to the exact machine instructions (and back).
//
// The per-line heat column uses the share of all (non-bookkeeping) stall
// samples attributed to the line; findings flagged by the detectors are
// marked in the margin.
func (r *Report) SourceView() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Source/SASS view — %s (%s)\n", r.Kernel, r.Arch)
	if r.kernel == nil {
		return b.String() + "(no kernel attached)\n"
	}

	// Which lines carry findings, for the margin markers.
	flagged := map[int][]string{}
	for i := range r.Findings {
		f := &r.Findings[i]
		for _, s := range f.Sites {
			found := false
			for _, a := range flagged[s.Line] {
				if a == f.Analysis {
					found = true
				}
			}
			if !found {
				flagged[s.Line] = append(flagged[s.Line], f.Analysis)
			}
		}
	}

	// Each line's share of the stall samples (dry runs have none, and no
	// heat column).
	share := map[int]float64{}
	for _, h := range r.lineHeats() {
		share[h.Line] = h.Share
	}

	lines := r.kernel.Lines()
	// Include unattributed source lines for completeness.
	maxLine := len(r.kernel.Source)
	for _, l := range lines {
		if l > maxLine {
			maxLine = l
		}
	}
	attributed := map[int]bool{}
	for _, l := range lines {
		attributed[l] = true
	}

	for line := 1; line <= maxLine; line++ {
		src := r.kernel.SourceLine(line)
		if src == "" && !attributed[line] {
			continue
		}
		heat := ""
		if len(share) > 0 {
			heat = fmt.Sprintf("%5.1f%% %-10s", 100*share[line], bar(share[line], 10))
		}
		mark := "  "
		if len(flagged[line]) > 0 {
			mark = "! "
		}
		fmt.Fprintf(&b, "%s%4d %s| %s\n", mark, line, heat, src)
		if len(flagged[line]) > 0 {
			fmt.Fprintf(&b, "      %s^ findings: %s\n", strings.Repeat(" ", len(heat)), strings.Join(flagged[line], ", "))
		}
		if !attributed[line] {
			continue
		}
		// SASS instructions for the line with their dominant stall.
		for _, pc := range r.kernel.PCsForLine(line) {
			in := r.kernel.InstAt(pc)
			stall := ""
			if r.Samples != nil {
				if top := r.Samples.TopStallsAtPC(pc, 1); len(top) > 0 {
					stall = fmt.Sprintf("   <- %s", top[0].Stall)
				}
			}
			fmt.Fprintf(&b, "      %s| %s%s\n", strings.Repeat(" ", len(heat)), in.String(), stall)
		}
	}
	return b.String()
}

// bar renders a proportional ASCII bar.
func bar(share float64, width int) string {
	n := int(share*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// lineHeats is the per-line stall profile in line order: every attributed
// line with stall samples, its share of all (non-bookkeeping) stall
// samples and its dominant stall.
func (r *Report) lineHeats() []LineHeat {
	if r.Samples == nil || r.kernel == nil {
		return nil
	}
	var out []LineHeat
	var total float64
	for _, line := range r.kernel.Lines() {
		agg := r.Samples.AtLine(line)
		var lineTotal float64
		var topStall sim.Stall
		var topVal float64
		for s := sim.Stall(0); s < sim.NumStalls; s++ {
			if s == sim.StallSelected || s == sim.StallNotSelected {
				continue
			}
			lineTotal += agg[s]
			if agg[s] > topVal {
				topVal, topStall = agg[s], s
			}
		}
		if lineTotal == 0 {
			continue
		}
		total += lineTotal
		out = append(out, LineHeat{Line: line, Samples: lineTotal, TopStall: topStall, Source: r.kernel.SourceLine(line)})
	}
	for i := range out {
		out[i].Share = out[i].Samples / total
	}
	return out
}

// LineHeat is one entry of the hottest-lines profile.
type LineHeat struct {
	Line     int       `json:"line"`
	Source   string    `json:"source,omitempty"`
	Samples  float64   `json:"-"`
	Share    float64   `json:"share"`
	TopStall sim.Stall `json:"top_stall"`
}
