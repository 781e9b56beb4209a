package scout

import (
	"fmt"
	"sort"

	"gpuscout/internal/sass"
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

// Detect implements Analysis.
func (TextureAnalysis) Detect(v *KernelView) []Finding {
	k := v.Kernel
	type group struct {
		base sass.Reg
		idxs []int
		offs []int64
	}
	groups := map[[2]int64]*group{}
	for i := range k.Insts {
		in := &k.Insts[i]
		if in.Op != sass.OpLDG || in.IsNC() {
			continue
		}
		mem, ok := in.MemOperand()
		if !ok || v.DefUse.PointerStoredThroughAt(mem.Reg, i) {
			continue
		}
		key := [2]int64{int64(mem.Reg), int64(v.DefUse.LastDefBefore(mem.Reg, i))}
		g := groups[key]
		if g == nil {
			g = &group{base: mem.Reg}
			groups[key] = g
		}
		g.idxs = append(g.idxs, i)
		g.offs = append(g.offs, mem.Imm)
	}

	keys := make([][2]int64, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	var findings []Finding
	for _, key := range keys {
		g := groups[key]
		if len(g.idxs) < 2 || !withinWindow(g.offs) {
			continue
		}
		f := Finding{
			Analysis: "texture_memory",
			Title:    "Spatially-local read-only loads: consider texture memory",
			Problem: fmt.Sprintf(
				"%d read-only global loads off base %s access adjacent addresses (offsets within %d bytes) — a spatially-local pattern the texture cache is optimized for",
				len(g.idxs), g.base, textureWindow),
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
		for n, i := range g.idxs {
			note := fmt.Sprintf("read-only load at offset %+d from [%s]", g.offs[n], g.base)
			if v.CFG.InLoop(i) {
				f.InLoop = true
				note += "; inside a for-loop"
			}
			f.Sites = append(f.Sites, v.site(i, note))
		}
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
