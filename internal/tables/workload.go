package tables

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/ft"
	"repro/internal/npb/lu"
	"repro/internal/npb/sp"
)

// This file is the one place a benchmark name is turned into a runnable
// workload. cmd/couple, cmd/npbrun, cmd/kcserved and the experiment index
// all build through it, which is what keeps their job keys (workload name +
// WorldDigest) interchangeable: a cache warmed by one binary serves the
// others.

// BenchProblem returns the class problem for a benchmark: BT, SP, LU
// (paper Tables 1, 5, 7) or FT (pencil-decomposed 2-D FFT).
func BenchProblem(bench string, class npb.Class) (npb.Problem, error) {
	switch strings.ToUpper(bench) {
	case "BT":
		return npb.BTProblem(class)
	case "SP":
		return npb.SPProblem(class)
	case "LU":
		return npb.LUProblem(class)
	case "FT":
		cfg, err := ft.ClassProblem(class)
		if err != nil {
			return npb.Problem{}, err
		}
		return npb.Problem{Class: class, N1: cfg.N, N2: cfg.N, N3: 1, Trips: 100}, nil
	}
	return npb.Problem{}, fmt.Errorf("tables: unknown benchmark %q", bench)
}

// GridProblem applies an n³ grid override (n² for the planar FT) to a
// class problem; non-positive n returns the problem unchanged. The
// override flows into WorldDigest, which is how a shrunk grid stays a
// distinct cache namespace from the class-sized one.
func GridProblem(bench string, prob npb.Problem, grid int) npb.Problem {
	if grid <= 0 {
		return prob
	}
	if strings.ToUpper(bench) == "FT" {
		prob.N1, prob.N2 = grid, grid
		return prob
	}
	return npb.TinyProblem(grid, prob.Trips)
}

// NewWorkload builds the harness workload for one benchmark × problem ×
// rank-count configuration, named the canonical "BENCH.CLASS.PROCS".
func NewWorkload(bench string, class npb.Class, prob npb.Problem, procs int, worldOpts []mpi.Option) (*harness.NPBWorkload, error) {
	var (
		factory         *npb.Factory
		pre, loop, post []string
		err             error
	)
	upper := strings.ToUpper(bench)
	switch upper {
	case "BT":
		factory, err = bt.Factory(bt.Config{Problem: prob, Procs: procs})
		pre, loop, post = bt.KernelNames()
	case "SP":
		factory, err = sp.Factory(sp.Config{Problem: prob, Procs: procs})
		pre, loop, post = sp.KernelNames()
	case "LU":
		factory, err = lu.Factory(lu.Config{Problem: prob, Procs: procs})
		pre, loop, post = lu.KernelNames()
	case "FT":
		factory, err = ft.Factory(ft.Config{N: prob.N1, Procs: procs})
		pre, loop, post = ft.KernelNames()
	default:
		err = fmt.Errorf("tables: unknown benchmark %q", bench)
	}
	if err != nil {
		return nil, err
	}
	return &harness.NPBWorkload{
		// Every served query builds one; concatenation, not formatting.
		WorkloadName: upper + "." + string(class) + "." + strconv.Itoa(procs),
		Factory:      factory,
		Pre:          pre, Loop: loop, Post: post,
		Procs:     procs,
		WorldOpts: worldOpts,
	}, nil
}
