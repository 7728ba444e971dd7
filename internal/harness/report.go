package harness

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// RenderStudy renders a study as the text report the couple command
// prints: isolated kernel times, coupling values and composition
// coefficients per chain length, the prediction comparison, and — only
// when the study degraded — the degradation report. A clean study renders
// byte-identically to the pre-fault-injection report.
func RenderStudy(s *Study) string {
	var b strings.Builder

	// Isolated kernel times.
	tb := stats.NewTable("Isolated kernel times (per execution)", "Kernel", "Seconds")
	for _, k := range s.App.KernelsSorted() {
		tb.AddRow(k, stats.Seconds(s.Measurements.Isolated[k]))
	}
	b.WriteString(tb.String())
	b.WriteByte('\n')

	// Couplings and coefficients per chain length.
	degradedAt := make(map[string]string, len(s.Health.Degraded))
	for _, d := range s.Health.Degraded {
		degradedAt[fmt.Sprintf("%d/%s", d.ChainLen, d.Kernel)] = d.Mode
	}
	analytic := make(map[string]AnalyticWindow, len(s.AnalyticCmp))
	for _, aw := range s.AnalyticCmp {
		analytic[aw.Key] = aw
	}
	for _, L := range s.ChainLens() {
		det := s.Details[L]
		cols := []string{"Window", "P_S", "C_S", "Regime"}
		if len(analytic) > 0 {
			// The disagreement columns appear only when an analytic
			// comparison was requested, so plain reports keep their
			// pre-backend bytes.
			cols = append(cols, "C_analytic", "Analytic band", "In band")
		}
		ct := stats.NewTable(fmt.Sprintf("Coupling values, chain length %d", L), cols...)
		for _, wc := range det.Couplings {
			row := []string{strings.Join(wc.Window, ", "), stats.Seconds(wc.Chained),
				fmt.Sprintf("%.4f", wc.C), wc.Regime(0.02).String()}
			if len(analytic) > 0 {
				if aw, ok := analytic[wc.Key()]; ok {
					inBand := "no"
					if aw.InBand() {
						inBand = "yes"
					}
					row = append(row, fmt.Sprintf("%.4f", aw.Analytic),
						fmt.Sprintf("[%.4f, %.4f]", aw.Lo, aw.Hi), inBand)
				} else {
					row = append(row, "-", "-", "-")
				}
			}
			ct.AddRow(row...)
		}
		b.WriteString(ct.String())
		b.WriteByte('\n')

		kt := stats.NewTable(fmt.Sprintf("Composition coefficients, chain length %d", L), "Kernel", "Coefficient")
		keys := make([]string, 0, len(det.Coefficients))
		for k := range det.Coefficients {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			coeff := fmt.Sprintf("%.4f", det.Coefficients[k])
			if mode, ok := degradedAt[fmt.Sprintf("%d/%s", L, k)]; ok {
				coeff += " (degraded: " + mode + ")"
			}
			kt.AddRow(k, coeff)
		}
		b.WriteString(kt.String())
		b.WriteByte('\n')
	}

	// Prediction comparison.
	pt := stats.NewTable("Predictions", "Predictor", "Seconds", "Relative Error")
	pt.AddRow("Actual", stats.Seconds(s.Actual), "-")
	pt.AddRow(s.Summation.Label, stats.Seconds(s.Summation.Predicted), stats.Percent(s.Summation.RelErr))
	for _, L := range s.ChainLens() {
		p := s.Couplings[L]
		pt.AddRow(p.Label, stats.Seconds(p.Predicted), stats.Percent(p.RelErr))
	}
	b.WriteString(pt.String())
	b.WriteByte('\n')
	best := s.BestPredictor()
	fmt.Fprintf(&b, "best predictor: %s (%s relative error)\n", best.Label, stats.Percent(best.RelErr))

	if !s.Health.Clean() {
		b.WriteByte('\n')
		b.WriteString(renderHealth(s.Health))
	}
	return b.String()
}

// renderHealth renders the degradation report: retries spent, windows
// lost, coefficients degraded.
func renderHealth(h StudyHealth) string {
	var b strings.Builder
	fmt.Fprintf(&b, "degradation report: %d retries, %d failed windows, %d degraded coefficients\n",
		len(h.Retries), len(h.FailedWindows), len(h.Degraded))
	if len(h.Retries) > 0 {
		t := stats.NewTable("Retries", "Measurement", "Kind", "Attempt", "Error")
		for _, r := range h.Retries {
			t.AddRow(r.Key, string(r.Kind), fmt.Sprint(r.Attempt), firstLine(r.Err))
		}
		b.WriteString(t.String())
	}
	if len(h.FailedWindows) > 0 {
		t := stats.NewTable("Failed windows (after retry budget)", "Window", "Error")
		for _, f := range h.FailedWindows {
			t.AddRow(f.Key, firstLine(f.Err))
		}
		b.WriteString(t.String())
	}
	if len(h.Degraded) > 0 {
		t := stats.NewTable("Degraded coefficients", "Kernel", "Chain", "Fallback")
		for _, d := range h.Degraded {
			t.AddRow(d.Kernel, fmt.Sprint(d.ChainLen), d.Mode)
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// firstLine truncates an error to its first line, capped for table width.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const max = 72
	if len(s) > max {
		s = s[:max-3] + "..."
	}
	return s
}
