package trace

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// RequestGroups turns a flight-recorder dump into one export Group per
// retained request, in the dump's retention order (slowest first, then
// errored). A request retained by both pools appears once, at its first
// position, labelled with both. Each group's spans are the dumped tree
// flattened back to pre-order with parent indices — the layout the
// request was recorded in.
func RequestGroups(d *obs.FlightDump) []Group {
	var groups []Group
	errored := map[string]bool{}
	for _, t := range d.Errored {
		errored[t.ID] = true
	}
	seen := map[string]bool{}
	add := func(pool string, traces []obs.TraceDump) {
		for _, t := range traces {
			if seen[t.ID] {
				continue
			}
			seen[t.ID] = true
			label := pool
			if pool == "slowest" && errored[t.ID] {
				label = "slowest+errored"
			}
			g := Group{Label: fmt.Sprintf("%s %s /%s (%d)", label, t.ID, t.Endpoint, t.Status)}
			var walk func(s obs.SpanDump, parent int)
			walk = func(s obs.SpanDump, parent int) {
				g.Spans = append(g.Spans, obs.Span{
					Name:    s.Name,
					Detail:  s.Detail,
					Rank:    -1,
					Track:   obs.TrackStages,
					Start:   time.Duration(s.StartNs),
					Elapsed: time.Duration(s.DurNs),
					Parent:  parent,
				})
				self := len(g.Spans) - 1
				for _, c := range s.Children {
					walk(c, self)
				}
			}
			walk(t.Root, -1)
			groups = append(groups, g)
		}
	}
	add("slowest", d.Slowest)
	add("errored", d.Errored)
	return groups
}
