// Package benchdiff compares the two newest committed benchmark
// snapshots (BENCH_<date>.json, as written by scripts/bench2json.sh)
// and fails when the newest one regresses. It is the repo's
// perf-regression gate: a PR that slows a measured path down by more
// than the thresholds, or that leaks allocations into it, turns CI red
// instead of landing silently.
//
// The comparison is per-benchmark and keyed on the benchmark name.
// Benchmarks that appear in only one snapshot are reported as
// informational churn, not failures — adding or retiring a benchmark is
// a deliberate act, and the diff should say so without blocking it.
package benchdiff

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Thresholds bounds the tolerated regression between two snapshots.
// Percentages are relative growth of the newer value over the older:
// 100 * (new - old) / old.
type Thresholds struct {
	// NsPct is the maximum tolerated ns/op growth, in percent.
	NsPct float64
	// AllocsPct is the maximum tolerated allocs/op growth, in percent.
	AllocsPct float64
}

// DefaultThresholds is the CI gate: 15% wall time, 10% allocations.
// Wall time gets the looser bound because the committed snapshots come
// from whatever machine ran `make bench`, and scheduling noise on a
// shared box easily reaches several percent; allocation counts are
// deterministic, so a 10% jump is always a real code change.
var DefaultThresholds = Thresholds{NsPct: 15, AllocsPct: 10}

// File is one parsed BENCH_<date>.json snapshot.
type File struct {
	Date       string      `json:"date"`
	Go         string      `json:"go"`
	Benchmarks []Benchmark `json:"benchmarks"`

	// Path is where the snapshot was loaded from; diagnostic only.
	Path string `json:"-"`
}

// Benchmark is one entry in a snapshot's benchmarks array.
type Benchmark struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Regression is one benchmark metric that grew past its threshold.
type Regression struct {
	Bench  string
	Metric string // "ns/op" or "allocs/op"
	Old    float64
	New    float64
	Pct    float64 // relative growth in percent
	Limit  float64 // the threshold it exceeded
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.6g -> %.6g (%+.1f%%, limit %.0f%%)",
		r.Bench, r.Metric, r.Old, r.New, r.Pct, r.Limit)
}

// LoadFile parses one BENCH_<date>.json snapshot.
func LoadFile(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return File{}, fmt.Errorf("benchdiff: %s: no benchmarks", path)
	}
	f.Path = path
	return f, nil
}

// Compare diffs every benchmark present in both snapshots and returns
// the metrics that regressed past th. The returned slice is sorted by
// benchmark name so output (and tests) are deterministic.
func Compare(old, new File, th Thresholds) []Regression {
	prev := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
	}
	var regs []Regression
	for _, b := range new.Benchmarks {
		ob, ok := prev[b.Name]
		if !ok {
			continue
		}
		for metric, limit := range map[string]float64{
			"ns/op":     th.NsPct,
			"allocs/op": th.AllocsPct,
		} {
			ov, haveOld := ob.Metrics[metric]
			nv, haveNew := b.Metrics[metric]
			if !haveOld || !haveNew || ov <= 0 {
				continue
			}
			pct := 100 * (nv - ov) / ov
			if pct > limit {
				regs = append(regs, Regression{
					Bench: b.Name, Metric: metric,
					Old: ov, New: nv, Pct: pct, Limit: limit,
				})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Bench != regs[j].Bench {
			return regs[i].Bench < regs[j].Bench
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs
}

// churn lists benchmark names present in exactly one of the snapshots.
func churn(old, new File) (removed, added []string) {
	prev := make(map[string]bool, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[b.Name] = true
	}
	cur := make(map[string]bool, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		cur[b.Name] = true
		if !prev[b.Name] {
			added = append(added, b.Name)
		}
	}
	for _, b := range old.Benchmarks {
		if !cur[b.Name] {
			removed = append(removed, b.Name)
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return removed, added
}

// CheckDir finds the BENCH_*.json snapshots in dir, compares the two
// newest (by filename — the date-stamped naming scheme sorts
// chronologically), and returns an error listing every regression past
// th. With fewer than two snapshots there is nothing to diff: CheckDir
// prints a warning to w and returns nil, so a fresh repo is not
// permanently red. Progress and churn also go to w.
func CheckDir(dir string, th Thresholds, w io.Writer) error {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	sort.Strings(matches)
	if len(matches) < 2 {
		fmt.Fprintf(w, "benchdiff: %d snapshot(s) in %s; need two to diff, skipping\n", len(matches), dir)
		return nil
	}
	oldPath, newPath := matches[len(matches)-2], matches[len(matches)-1]
	old, err := LoadFile(oldPath)
	if err != nil {
		return err
	}
	cur, err := LoadFile(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "benchdiff: %s -> %s\n", filepath.Base(oldPath), filepath.Base(newPath))
	if removed, added := churn(old, cur); len(removed)+len(added) > 0 {
		if len(added) > 0 {
			fmt.Fprintf(w, "benchdiff: new benchmarks: %s\n", strings.Join(added, ", "))
		}
		if len(removed) > 0 {
			fmt.Fprintf(w, "benchdiff: removed benchmarks: %s\n", strings.Join(removed, ", "))
		}
	}
	regs := Compare(old, cur, th)
	if len(regs) == 0 {
		fmt.Fprintf(w, "benchdiff: %d shared benchmark(s) within thresholds (ns/op +%.0f%%, allocs/op +%.0f%%)\n",
			len(cur.Benchmarks), th.NsPct, th.AllocsPct)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(w, "benchdiff: REGRESSION %s\n", r)
	}
	return fmt.Errorf("benchdiff: %d regression(s) past thresholds", len(regs))
}
