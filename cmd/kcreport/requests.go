package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/trace"
)

// runRequests renders a kcserved flight-recorder dump: a summary table,
// then one span tree per retained trace — slowest set first, errored
// ring after — with per-stage durations and the share of the request
// each stage accounts for. With traceOut set the dump is also exported
// as a Perfetto trace-event file.
func runRequests(w io.Writer, path, traceOut string) error {
	d, err := obs.ReadFlightDumpFile(path)
	if err != nil {
		return err
	}

	tb := stats.NewTable("Flight recorder", "Field", "Value")
	tb.AddRowf("traces seen\t%d", d.Seen)
	tb.AddRowf("slowest retained\t%d", len(d.Slowest))
	tb.AddRowf("errored retained\t%d", len(d.Errored))
	if d.ErroredEvicted > 0 {
		tb.AddRowf("errored evicted\t%d", d.ErroredEvicted)
	}
	// Guard outcomes across the retained traces: shed (503), spent
	// deadline budgets (504), and degraded answers, so an overloaded
	// service's dump leads with how the guard behaved. A trace retained
	// by both pools (slow AND errored) counts once.
	var shed, deadline, degraded int
	seen := map[string]bool{}
	for _, t := range append(append([]obs.TraceDump{}, d.Slowest...), d.Errored...) {
		if seen[t.ID] {
			continue
		}
		seen[t.ID] = true
		switch t.Status {
		case 503:
			shed++
		case 504:
			deadline++
		}
		for _, a := range t.Attrs {
			if a.Key == "degraded" {
				degraded++
			}
		}
	}
	if shed+deadline+degraded > 0 {
		tb.AddRowf("shed (503)\t%d", shed)
		tb.AddRowf("deadline exceeded (504)\t%d", deadline)
		tb.AddRowf("degraded answers\t%d", degraded)
	}
	fmt.Fprintln(w, tb.String())

	printGroup(w, "Slowest requests", d.Slowest)
	printGroup(w, "Errored requests", d.Errored)

	if traceOut != "" {
		if err := trace.WriteTraceEventFile(traceOut, trace.RequestGroups(d)...); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote Perfetto trace: %s\n", traceOut)
	}
	return nil
}

func printGroup(w io.Writer, title string, traces []obs.TraceDump) {
	if len(traces) == 0 {
		return
	}
	fmt.Fprintf(w, "== %s ==\n\n", title)
	for _, t := range traces {
		head := fmt.Sprintf("%s  /%s  %d%s  %s", t.ID, t.Endpoint, t.Status, guardTag(t.Status), fmtNs(t.TotalNs))
		if len(t.Attrs) > 0 {
			parts := make([]string, len(t.Attrs))
			for i, a := range t.Attrs {
				parts[i] = a.Key + "=" + a.Value
			}
			head += "  [" + strings.Join(parts, " ") + "]"
		}
		fmt.Fprintln(w, head)
		if t.Err != "" {
			fmt.Fprintf(w, "  error: %s\n", t.Err)
		}
		printSpanTree(w, t.Root, 1, t.TotalNs)
		fmt.Fprintln(w)
	}
}

// guardTag labels the two guard-specific status codes so shed and
// deadline-expired traces stand out in the listing.
func guardTag(status int) string {
	switch status {
	case 503:
		return " SHED"
	case 504:
		return " DEADLINE"
	}
	return ""
}

// printSpanTree renders one span subtree, one line per span: indent,
// name, duration, share of the whole request, and detail.
func printSpanTree(w io.Writer, s obs.SpanDump, depth int, totalNs int64) {
	line := fmt.Sprintf("%s%-*s %10s", strings.Repeat("  ", depth), 28-2*depth, s.Name, fmtNs(s.DurNs))
	if totalNs > 0 {
		line += fmt.Sprintf(" %5.1f%%", 100*float64(s.DurNs)/float64(totalNs))
	}
	if s.Detail != "" {
		line += "  " + s.Detail
	}
	fmt.Fprintln(w, line)
	for _, c := range s.Children {
		printSpanTree(w, c, depth+1, totalNs)
	}
}
