// cachestudy reproduces the paper's Section 4.1 observation: as the
// working set scales, kernel-coupling values go through a small, finite
// number of major transitions, one per cache-capacity boundary of the
// host.
//
// Two streaming kernels A and B each own an array of W bytes. Measured in
// isolation, a kernel's loop re-reads its own (cached, when it fits)
// array; chained, the pair needs 2W. In the band where W fits in a cache
// level but 2W does not, the kernels evict each other and the pair
// coupling C_AB rises above 1; once W alone exceeds the cache, both
// settings miss everywhere and C_AB falls back toward 1. The sweep
// renders the resulting plateaus and counts the transitions.
//
//	go run ./examples/cachestudy            # full sweep, ~a minute
//	go run ./examples/cachestudy -quick     # coarse axis, a few seconds
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/stats"
)

func main() {
	quick := flag.Bool("quick", false, "coarse axis with less streaming volume")
	flag.Parse()

	sizes := memmodel.GeometricSizes(16<<10, 64<<20, 13)
	blocks, volume := 3, 48<<20
	if *quick {
		sizes = memmodel.GeometricSizes(32<<10, 16<<20, 7)
		blocks, volume = 2, 8<<20
	}

	fmt.Println("sweeping per-kernel working set across the cache hierarchy...")
	points, err := memmodel.Sweep(sizes, harness.Options{Blocks: blocks, TrimFrac: memmodel.SweepTrim}, volume)
	if err != nil {
		log.Fatal(err)
	}

	tb := stats.NewTable("Pair coupling vs. working set",
		"Working Set / Kernel", "C_AB", "")
	for _, p := range points {
		width := int((p.C - 0.8) * 40)
		if width < 0 {
			width = 0
		}
		tb.AddRow(fmtBytes(p.Bytes), fmt.Sprintf("%.3f", p.C), strings.Repeat("#", width))
	}
	fmt.Println(tb.String())

	const threshold = 0.08
	trans := memmodel.Transitions(points, threshold)
	plateaus := memmodel.Plateaus(points, threshold)
	fmt.Printf("major transitions (|ΔC| > %.2f): %d\n", threshold, len(trans))
	for i, p := range plateaus {
		fmt.Printf("  plateau %d: mean C = %.3f\n", i+1, p)
	}
	fmt.Println("\nA finite number of plateaus separated by sharp transitions is the")
	fmt.Println("paper's memory-subsystem signature: each cache level contributes one.")
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%.0f KiB", float64(b)/(1<<10))
	}
}
