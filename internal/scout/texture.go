package scout

import (
	"fmt"
	"sort"

	"gpuscout/internal/sim"
)

// TextureAnalysis implements §4.6: read-only global loads from adjacent
// addresses (spatial locality, as in the paper's Listing 1 where loads hit
// [R2] and [R2+-0x8]) are candidates for texture memory, whose dedicated
// cache is optimized for spatially-local accesses.
type TextureAnalysis struct{}

// textureWindow is the byte distance within which two loads off the
// same base count as spatially local: one sector.
const textureWindow = 32

// Name implements Analysis.
func (TextureAnalysis) Name() string { return "texture_memory" }

// Describe implements Analysis: the bottleneck class is §4.5's, the
// read-only data path.
func (TextureAnalysis) Describe() Description { return ReadOnlyAnalysis{}.Describe() }

// Detect implements Analysis.
func (TextureAnalysis) Detect(v *KernelView) []Finding {
	var findings []Finding
	for _, g := range v.loadGroups(v.readOnlyLoad) {
		if len(g.Idxs) < 2 || !withinWindow(g.Offs) {
			continue
		}
		f := Finding{
			Analysis: "texture_memory",
			Title:    "Spatially-local read-only loads: consider texture memory",
			Problem: fmt.Sprintf(
				"%d read-only global loads off base %s access adjacent addresses (offsets within %d bytes) — a spatially-local pattern the texture cache is optimized for",
				len(g.Idxs), g.Base, textureWindow),
			Recommendation: "fetch this data through texture memory (tex2D()/texture objects) or, for a more maintainable alternative, stage it in shared memory",
			RelevantStalls: []sim.Stall{sim.StallLongScoreboard},
			RelevantMetrics: []string{
				"l1tex__t_sectors_pipe_lsu_mem_global_op_ld.sum",
				"l1tex__t_sector_pipe_lsu_mem_global_op_ld_hit_rate.pct",
			},
			CautionMetrics: []string{
				// §4.6: too many outstanding texture requests fill the TEX
				// pipeline; watch these after the change.
				"smsp__warp_issue_stalled_tex_throttle_per_warp_active.pct",
				"smsp__warp_issue_stalled_long_scoreboard_per_warp_active.pct",
				"l1tex__t_sector_pipe_tex_mem_texture_hit_rate.pct",
			},
		}
		v.addSites(&f, g.Idxs, "; inside a for-loop", func(n, _ int) string {
			return fmt.Sprintf("read-only load at offset %+d from [%s]", g.Offs[n], g.Base)
		})
		findings = append(findings, f)
	}
	return findings
}

// withinWindow reports whether at least two distinct offsets lie within
// textureWindow bytes of each other.
func withinWindow(offs []int64) bool {
	s := append([]int64(nil), offs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i := 1; i < len(s); i++ {
		d := s[i] - s[i-1]
		if d != 0 && d <= textureWindow {
			return true
		}
	}
	return false
}
