// Command paper regenerates the evaluation tables of "Using Kernel
// Couplings to Predict Parallel Application Performance" (HPDC 2002):
// the data-set tables (1, 5, 7), the coupling-value tables (2a, 3a, 4a),
// the prediction-comparison tables (2b, 3b, 4b, 6a–c, 8a–c), the
// Section 4.1 cache-transition sweep, and this repo's ablations and
// extensions (ablation-chain, -weighting, -net, -trim; ext-ft, ext-shared).
//
//	paper                 # run every table with laptop-scale defaults
//	paper -table 4b       # one table
//	paper -table ablation-chain
//	paper -table 2b -trips 60 -blocks 5
//	paper -fast           # tiny grids, smoke-test scale
//	paper -net            # attach the IBM SP interconnect cost model
//
// Loop trip counts default to scaled-down values (see -trips); the
// relative errors the tables compare are nearly independent of the count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/tables"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "paper: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole process behind main; every failure is a returned
// error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table  = fs.String("table", "", "table ID to run (e.g. 2a); empty runs all")
		trips  = fs.Int("trips", 0, "loop trip count override (0 = class default)")
		blocks = fs.Int("blocks", 0, "timed blocks per measurement (0 = default)")
		passes = fs.Int("passes", 0, "window passes per block (0 = 1)")
		grid   = fs.Int("grid", 0, "grid override: use an n³ grid instead of the class size")
		procs  = fs.String("procs", "", "comma-separated processor counts override")
		net    = fs.Bool("net", false, "attach the IBM SP interconnect cost model")
		fast   = fs.Bool("fast", false, "smoke-test scale: 8³ grids, 2 trips")
		out    = fs.String("out", "", "also append the rendered tables to this file")

		parallel = fs.Int("parallel", 1, "measurement worker count (1 = sequential, preserves timing fidelity)")
		cacheDir = fs.String("cache-dir", "", "persist the content-addressed measurement cache in this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale := tables.Scale{
		Trips: *trips, Blocks: *blocks, Passes: *passes, GridOverride: *grid,
		Parallel: *parallel, CacheDir: *cacheDir,
	}
	if *fast {
		scale.GridOverride = 8
		if scale.Trips == 0 {
			scale.Trips = 2
		}
		if scale.Blocks == 0 {
			scale.Blocks = 2
		}
	}
	if *net {
		m := mpi.IBMSPModel()
		scale.Net = &m
	}
	defer tables.CloseDirCaches()

	var procsOverride []int
	if *procs != "" {
		for _, p := range strings.Split(*procs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad -procs value %q: %w", p, err)
			}
			procsOverride = append(procsOverride, n)
		}
	}

	exps := tables.All()
	if *table != "" {
		e, ok := tables.Find(*table)
		if !ok {
			ids := make([]string, len(exps))
			for i, e := range exps {
				ids[i] = e.ID
			}
			return fmt.Errorf("unknown table %q; known tables: %s", *table, strings.Join(ids, " "))
		}
		exps = []tables.Experiment{e}
	}

	var outFile *os.File
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		outFile = f
	}

	var planned, executed, hits int
	for _, e := range exps {
		if procsOverride != nil && len(e.Procs) > 0 {
			e.Procs = procsOverride
		}
		start := time.Now()
		res, err := e.Run(scale)
		if err != nil {
			return fmt.Errorf("table %s: %w", e.ID, err)
		}
		for _, ps := range res.Studies {
			planned += ps.Study.Exec.Planned
			executed += ps.Study.Exec.Executed
			hits += ps.Study.Exec.CacheHits
		}
		fmt.Fprintln(stdout, res.Text)
		fmt.Fprintf(stdout, "[table %s regenerated in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if outFile != nil {
			fmt.Fprintf(outFile, "```\n%s```\n\n", res.Text)
		}
	}
	// Campaign summary: with the job cache on, paired tables and shared
	// windows mean strictly fewer world executions than jobs planned.
	if *parallel > 1 || *cacheDir != "" {
		fmt.Fprintf(stderr, "paper: campaign jobs planned=%d executed=%d cache hits=%d (parallel=%d)\n",
			planned, executed, hits, *parallel)
	}
	return nil
}
