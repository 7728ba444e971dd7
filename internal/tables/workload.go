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

// benchmarks are the benchmarks a name can select, each described once
// by its own package.
var benchmarks = [...]*npb.Benchmark{&bt.Benchmark, &sp.Benchmark, &lu.Benchmark, &ft.Benchmark}

// benchmark returns the description of the named benchmark, matched
// without regard to case.
func benchmark(name string) (*npb.Benchmark, error) {
	for _, b := range benchmarks {
		if strings.EqualFold(b.Name, name) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("tables: unknown benchmark %q", name)
}

// NewWorkload builds the harness workload for one benchmark × problem ×
// rank-count configuration, named the canonical "BENCH.CLASS.PROCS".
func NewWorkload(bench string, class npb.Class, prob npb.Problem, procs int, worldOpts []mpi.Option) (*harness.NPBWorkload, error) {
	b, err := benchmark(bench)
	if err != nil {
		return nil, err
	}
	factory, err := b.Factory(prob, procs)
	if err != nil {
		return nil, err
	}
	return &harness.NPBWorkload{
		// Every served query builds one; concatenation, not formatting.
		WorkloadName: b.Name + "." + string(class) + "." + strconv.Itoa(procs),
		Factory:      factory,
		Pre:          b.Pre, Loop: b.Loop, Post: b.Post,
		Procs:     procs,
		WorldOpts: worldOpts,
	}, nil
}
