// Package trace renders what internal/obs recorded, in the spirit of the
// authors' Prophesy infrastructure [TG01]: the kernel-track spans of a
// trace summarized as per-kernel profiles or drawn as a per-rank ASCII
// timeline (this file), and any groups of spans exported as one Chrome
// trace-event document for Perfetto (traceevent.go). It records nothing
// itself — kernel executions are timed at the measurement layer's one
// stamp site (package npb) — so every rendering here is a view over
// []obs.Span.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Kernels is the kernel-track view of a trace: one span per kernel
// execution, in record order.
type Kernels []obs.Span

// KernelView filters spans down to the kernel executions.
func KernelView(spans []obs.Span) Kernels {
	var ks Kernels
	for _, s := range spans {
		if s.Track == obs.TrackKernels {
			ks = append(ks, s)
		}
	}
	return ks
}

// Profile summarizes one kernel's executions.
type Profile struct {
	Kernel string
	Count  int
	Total  time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Mean returns the mean execution time.
func (p Profile) Mean() time.Duration {
	if p.Count == 0 {
		return 0
	}
	return p.Total / time.Duration(p.Count)
}

// Profiles aggregates the executions per kernel, sorted by descending
// total time — the "where does the time go" view.
func (ks Kernels) Profiles() []Profile {
	byKernel := map[string]*Profile{}
	for _, e := range ks {
		p := byKernel[e.Name]
		if p == nil {
			p = &Profile{Kernel: e.Name, Min: e.Elapsed, Max: e.Elapsed}
			byKernel[e.Name] = p
		}
		p.Count++
		p.Total += e.Elapsed
		if e.Elapsed < p.Min {
			p.Min = e.Elapsed
		}
		if e.Elapsed > p.Max {
			p.Max = e.Elapsed
		}
	}
	out := make([]Profile, 0, len(byKernel))
	for _, p := range byKernel {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Kernel < out[j].Kernel
	})
	return out
}

// Timeline renders a per-rank ASCII timeline of width columns: each rank
// gets one lane, each kernel execution a run of its marker letter
// (the kernel name's first letter), gaps staying blank. It reports the
// wall span covered.
func (ks Kernels) Timeline(width int) string {
	if len(ks) == 0 {
		return "(no events)\n"
	}
	if width < 10 {
		width = 10
	}
	maxRank := 0
	var end time.Duration
	for _, e := range ks {
		if e.Rank > maxRank {
			maxRank = e.Rank
		}
		if fin := e.Start + e.Elapsed; fin > end {
			end = fin
		}
	}
	if end <= 0 {
		end = 1
	}
	lanes := make([][]byte, maxRank+1)
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(" ", width))
	}
	col := func(d time.Duration) int {
		c := int(int64(d) * int64(width) / int64(end))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for _, e := range ks {
		if e.Rank < 0 {
			continue
		}
		marker := byte('?')
		if len(e.Name) > 0 {
			marker = e.Name[0]
		}
		from := col(e.Start)
		to := col(e.Start + e.Elapsed)
		for c := from; c <= to; c++ {
			lanes[e.Rank][c] = marker
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline over %v (one lane per rank, kernel initials):\n", end.Round(time.Microsecond))
	for r, lane := range lanes {
		fmt.Fprintf(&b, "rank %2d |%s|\n", r, lane)
	}
	return b.String()
}

// String renders the per-kernel profile table.
func (ks Kernels) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %12s %12s %12s %12s\n", "kernel", "count", "total", "mean", "min", "max")
	for _, p := range ks.Profiles() {
		fmt.Fprintf(&b, "%-16s %8d %12v %12v %12v %12v\n",
			p.Kernel, p.Count, p.Total.Round(time.Microsecond), p.Mean().Round(time.Microsecond),
			p.Min.Round(time.Microsecond), p.Max.Round(time.Microsecond))
	}
	return b.String()
}
