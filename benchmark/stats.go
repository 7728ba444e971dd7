package main

import (
	"sort"
	"time"

	"repro/internal/stats"
)

// quantile returns the q-quantile of an ascending slice by the
// nearest-rank rule the root serve benchmark uses, so numbers stay
// comparable with the archived p50-ns/p99-ns. Empty input returns 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is stats.Median, named here because almost every reported
// number is one.
func median(xs []float64) float64 { return stats.Median(xs) }

// iqr is the distance between the first and third quartile — the spread
// the accuracy metrics are reported with, and the one the driver uses
// to judge whether a run repeats.
func iqr(xs []float64) float64 {
	s := sortedCopy(xs)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// micros converts latencies to the unit most metrics print in.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

func sortedMicros(ds []time.Duration) []float64 {
	us := micros(ds)
	sort.Float64s(us)
	return us
}

// tailQuantile picks the highest percentile a slice of n samples
// supports: p99 needs about ten samples beyond it, so slices under 1000
// samples fall back to p95.
func tailQuantile(n int) float64 {
	if n < 1000 {
		return 0.95
	}
	return 0.99
}
