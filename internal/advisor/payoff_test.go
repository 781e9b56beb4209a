package advisor

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpuscout/internal/scout"
)

// payoffRow is one verified finding: the modeled payoff next to the
// measured speedup of the paired fixed variant.
type payoffRow struct {
	report, analysis string
	line             int
	swept, unswept   float64 // est_speedup, and the stall ceiling alone
	measured         float64
	verdict          scout.Verdict
}

// TestPayoffAgainstVerify tabulates how far each verified finding's
// payoff estimate sits from what Verify measured, over the committed
// golden reports of both arches. It runs nothing: the table is a view of
// the goldens, pinned so that a change to the payoff model shows its
// effect on the gap in review. The unswept estimate undoes
// AttachSensitivity's widening (est / dominant_relief when the finding
// has a dominant resource). The file lives outside testdata/golden,
// whose contents the service's model digest hashes. Regenerate with:
// go test ./internal/advisor -run 'TestPayoffAgainstVerify$' -update
func TestPayoffAgainstVerify(t *testing.T) {
	var rows []payoffRow
	for _, path := range goldenJSONPaths(t) {
		if strings.HasPrefix(filepath.Base(path), "archcompare_") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep scout.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name, err := filepath.Rel(filepath.Join("testdata", "golden"), path)
		if err != nil {
			t.Fatal(err)
		}
		name = strings.TrimSuffix(filepath.ToSlash(name), ".json")
		for i := range rep.Findings {
			f := &rep.Findings[i]
			if f.Verification == nil {
				continue
			}
			unswept := f.EstSpeedup
			if s := f.Sensitivity; s != nil && s.Dominant != "" {
				unswept /= s.DominantRelief
			}
			rows = append(rows, payoffRow{
				report: name, analysis: f.Analysis, line: f.PrimaryLine(),
				swept: f.EstSpeedup, unswept: unswept,
				measured: f.Verification.Speedup, verdict: f.Verification.Verdict,
			})
		}
	}
	if len(rows) == 0 {
		t.Fatal("no golden report carries a verified finding")
	}

	var b strings.Builder
	b.WriteString("# Payoff estimate vs measured speedup of every verified finding in the\n" +
		"# golden reports. swept = est_speedup; unswept = the stall ceiling alone\n" +
		"# (est_speedup / dominant_relief when the finding has a dominant resource).\n")
	fmt.Fprintf(&b, "%-28s %-18s %4s %9s %9s %9s  %s\n",
		"report", "analysis", "line", "swept", "unswept", "measured", "verdict")
	var confirmed, above int
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %-18s %4d %9.4f %9.4f %9.4f  %s\n",
			r.report, r.analysis, r.line, r.swept, r.unswept, r.measured, r.verdict)
		if r.verdict == scout.VerdictConfirmed {
			confirmed++
			if r.measured > r.swept {
				above++
			}
		}
	}
	b.WriteString("\n# Per report with at least 2 rows: mean |log(est/measured)| and\n" +
		"# Kendall tau-a of est vs measured, swept and unswept.\n")
	fmt.Fprintf(&b, "%-28s %4s %9s %9s %9s %9s\n",
		"report", "rows", "log_sw", "log_un", "tau_sw", "tau_un")
	for start := 0; start < len(rows); {
		end := start
		for end < len(rows) && rows[end].report == rows[start].report {
			end++
		}
		if g := rows[start:end]; len(g) >= 2 {
			fmt.Fprintf(&b, "%-28s %4d %9.4f %9.4f %9.4f %9.4f\n", g[0].report, len(g),
				meanLogGap(g, false), meanLogGap(g, true), kendallTauA(g, false), kendallTauA(g, true))
		}
		start = end
	}
	fmt.Fprintf(&b, "\n%d verified, %d confirmed, %d confirmed above the swept estimate\n",
		len(rows), confirmed, above)
	fmt.Fprintf(&b, "over all rows: mean |log(est/measured)| swept %.4f, unswept %.4f; Kendall tau-a swept %.4f, unswept %.4f\n",
		meanLogGap(rows, false), meanLogGap(rows, true), kendallTauA(rows, false), kendallTauA(rows, true))
	compareGolden(t, filepath.Join("testdata", "payoff_gap.txt"), []byte(b.String()))
}

func (r payoffRow) est(unswept bool) float64 {
	if unswept {
		return r.unswept
	}
	return r.swept
}

// meanLogGap is the mean |log(est/measured)|: 0 when every estimate is
// exact, log 2 when each is off by a factor of two either way.
func meanLogGap(rows []payoffRow, unswept bool) float64 {
	var sum float64
	for _, r := range rows {
		sum += math.Abs(math.Log(r.est(unswept) / r.measured))
	}
	return sum / float64(len(rows))
}

// kendallTauA is (concordant - discordant) pairs over all pairs: 1 when
// the estimates rank the findings as the measurements do, -1 when they
// rank them backwards. A pair tied on either side counts as neither.
func kendallTauA(rows []payoffRow, unswept bool) float64 {
	var score, pairs int
	for i := range rows {
		for j := i + 1; j < len(rows); j++ {
			pairs++
			de := rows[i].est(unswept) - rows[j].est(unswept)
			dm := rows[i].measured - rows[j].measured
			switch {
			case de*dm > 0:
				score++
			case de*dm < 0:
				score--
			}
		}
	}
	return float64(score) / float64(pairs)
}
