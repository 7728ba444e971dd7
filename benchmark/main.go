// Command benchmark is the repo's performance instrument: four
// workloads driven only through public functions and HTTP endpoints,
// twelve end-to-end metrics measured with tracing off, and a per-layer
// budget timed from outside in a separate traced run. README.md in this
// directory holds the tables (what each workload stresses and why, what
// each metric means and its bound, which layer metric should move which
// end-to-end metric); BENCHMARK.json at the repo root is the contract
// the driver runs it by.
//
//	go run ./benchmark -workload serve_warm -seed 1
//	go run ./benchmark -workload all -seed 1 -trace 1
//	go run ./benchmark -workload all -seed 1 -aa
//	go run ./benchmark -workload all -smoke
//
// It claims nothing about the code it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runCfg is one run's scale and destinations.
type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	// workDir holds the cache directories a run creates; outDir receives
	// trace files. Both sit inside the checkout.
	workDir string
	outDir  string
}

// The serving workloads spend 80 % of -seconds in one-second closed-loop
// rounds and (serve_warm only) 20 % in an open loop; serve_cold and
// campaign do a fixed amount of work, one sweep or trial per 5 s of
// -seconds. Smoke scale runs every phase for well under a second.

// closedRounds sizes a closed-loop phase: one round per second of its
// share of -seconds, each a work slice followed by a control slice.
func (c runCfg) closedRounds(share float64) (rounds int, workDur time.Duration) {
	if c.smoke {
		return 2, 400 * time.Millisecond
	}
	rounds = int(c.seconds * share)
	if rounds < 1 {
		rounds = 1
	}
	return rounds, time.Second - controlSlice
}

// openRounds is how many openSlice rounds the open-loop phase holds.
func (c runCfg) openRounds() int {
	if n := int(c.seconds * 0.2 * float64(time.Second) / float64(openSlice)); n > 1 && !c.smoke {
		return n
	}
	return 1
}

// traceRounds sizes the traced run's alternating passes: half of
// -seconds in all, split into rounds of one untraced and one traced
// slice each.
func (c runCfg) traceRounds() (int, time.Duration) {
	if c.smoke {
		return 1, 300 * time.Millisecond
	}
	return 8, time.Duration(c.seconds / 32 * float64(time.Second))
}

// repeats is how many sweeps (serve_cold) or trials (campaign) an
// untraced run holds.
func (c runCfg) repeats() int {
	if n := int(c.seconds / 5); n > 1 && !c.smoke {
		return n
	}
	return 1
}

// setups is how many times a run sets its fixture up; setup_s is their
// median.
func (c runCfg) setups() int {
	if c.smoke {
		return 1
	}
	return 3
}

func (c runCfg) tracePath() string { return filepath.Join(c.outDir, c.workload+".trace.json") }

var workloads = map[string]func(runCfg) (*result, error){
	"serve_warm":  runServeWarm,
	"serve_fleet": runServeFleet,
	"serve_cold":  runServeCold,
	"campaign":    runCampaign,
}

// runWorkload runs one workload and completes its metric maps to the
// shape the contract prints: every end-to-end metric on an untraced
// run, every per-layer metric on a traced one.
func runWorkload(cfg runCfg) (*result, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	if res.clients > runtime.NumCPU() {
		res.failed++
		res.notes = append(res.notes, fmt.Sprintf("load generator used %d client goroutines on %d CPUs", res.clients, runtime.NumCPU()))
	}
	if !cfg.traced {
		return res, fillAliases(cfg.workload, res.e2e)
	}
	res.layers["loadgen.clients"] = float64(res.clients)
	for n := range res.layers {
		if _, ok := layerUnits[n]; !ok {
			return nil, fmt.Errorf("%s reported unlisted layer metric %s", cfg.workload, n)
		}
	}
	for _, n := range layerNames() {
		if _, ok := res.layers[n]; !ok {
			res.layers[n] = 0 // a layer this workload does not exercise
		}
	}
	return res, nil
}

// environment is recorded with every result: a number measured under an
// unknown protocol on an unknown host cannot be compared with anything.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Traced     bool    `json:"traced"`
	Protocol   string  `json:"protocol"`
}

const protocol = "serving: every key measured once in set-up (responses discarded), then 25 requests per client discarded at the start of every slice; " +
	"closed-loop figures corrected round by round by a bare net/http control server's round trip (raw figures in info); " +
	"campaign: discarded LU studies first, then runtime.GC + debug.FreeOSMemory before every timed study; " +
	"set-up repeated and its median reported; end-to-end metrics from the untraced run only"

// commit finds the revision being measured: the toolchain's VCS stamp
// when there is one, else the checkout's .git, else unknown (the driver
// runs from an exported tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadOut struct {
	Name         string               `json:"name"`
	OpsAttempted int                  `json:"ops_attempted"`
	OpsFailed    int                  `json:"ops_failed"`
	Clients      int                  `json:"clients"`
	Native       []string             `json:"native_end_to_end,omitempty"`
	EndToEnd     map[string]metricOut `json:"end_to_end,omitempty"`
	PerLayer     map[string]metricOut `json:"per_layer,omitempty"`
	Info         map[string]any       `json:"info,omitempty"`
	Failures     []string             `json:"failures,omitempty"`
}

type aaOut struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Ratio    float64 `json:"ratio"`
	Bound    float64 `json:"bound"`
	Pass     bool    `json:"pass"`
}

// summary is the full record of an invocation. Claim is last and always
// null: this program measures, it does not argue.
type summary struct {
	Env       environment   `json:"env"`
	Workloads []workloadOut `json:"workloads"`
	AA        []aaOut       `json:"aa,omitempty"`
	Claim     *string       `json:"claim"`
}

func (r *result) out(traced bool) workloadOut {
	w := workloadOut{Name: r.workload, OpsAttempted: r.attempted, OpsFailed: r.failed, Clients: r.clients, Info: r.info, Failures: r.notes}
	if traced {
		w.PerLayer = map[string]metricOut{}
		for n, v := range r.layers {
			w.PerLayer[n] = metricOut{v, layerUnits[n]}
		}
		return w
	}
	w.Native = native[r.workload]
	w.EndToEnd = map[string]metricOut{}
	for _, d := range endToEnd {
		w.EndToEnd[d.name] = metricOut{r.e2e[d.name], d.unit}
	}
	return w
}

// printMetrics lists every metric of a run by name and unit.
func printMetrics(r *result, traced bool) {
	fmt.Printf("workload %s\n", r.workload)
	if traced {
		for _, n := range layerNames() {
			fmt.Printf("  %-34s %14.4f %s\n", n, r.layers[n], layerUnits[n])
		}
	} else {
		isNative := map[string]bool{}
		for _, n := range native[r.workload] {
			isNative[n] = true
		}
		for _, d := range endToEnd {
			note := ""
			if !isNative[d.name] {
				note = "  (= " + headline[r.workload] + ", not defined on this workload)"
			}
			fmt.Printf("  %-34s %14.4f %s%s\n", d.name, r.e2e[d.name], d.unit, note)
		}
	}
	fmt.Printf("  %-34s %14d\n  %-34s %14d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)
	for _, n := range r.notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
}

// compareAA judges two runs of the same code against each native
// metric's bound — the instrument's own noise floor. The code did not
// change, so a second run that reads better by more than the bound is
// as much a failure to repeat as one that reads worse.
func compareAA(a, b *result) []aaOut {
	var rows []aaOut
	for _, n := range native[a.workload] {
		d := defOf(n)
		ratio := b.e2e[n] / a.e2e[n]
		rows = append(rows, aaOut{a.workload, n, a.e2e[n], b.e2e[n], ratio, d.bound, math.Abs(ratio-1) <= d.bound})
	}
	return rows
}

func main() {
	var (
		workload = flag.String("workload", "all", "serve_warm, serve_fleet, serve_cold, campaign or all")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same request schedule")
		seconds  = flag.Float64("seconds", 25, "measured time per run for the time-based phases")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "smoke scale: every workload under 3 s, all correctness checks on")
		aa       = flag.Bool("aa", false, "run each workload twice and judge the pair against the bounds")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files and scratch caches")
	)
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail("%v", err)
	}
	workDir, err := os.MkdirTemp(*outDir, "run-")
	if err != nil {
		fail("%v", err)
	}
	code := run(*workload, runCfg{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, workDir: workDir, outDir: *outDir}, *aa)
	os.RemoveAll(workDir)
	os.Exit(code)
}

// run executes the selected workloads and prints their results; the
// return value is the process's exit code.
func run(workload string, cfg runCfg, aa bool) int {
	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	}
	sum := summary{Env: environment{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke, Traced: cfg.traced, Protocol: protocol,
	}}
	var last *result
	aaFailed := false
	for _, name := range names {
		cfg.workload = name
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		printMetrics(res, cfg.traced)
		sum.Workloads = append(sum.Workloads, res.out(cfg.traced))
		last = res
		if aa && !cfg.traced {
			again, err := runWorkload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (second run): %v\n", name, err)
				return 1
			}
			sum.Workloads = append(sum.Workloads, again.out(false))
			for _, row := range compareAA(res, again) {
				verdict := "PASS"
				if !row.Pass {
					verdict, aaFailed = "FAIL", true
				}
				fmt.Printf("  A/A %-22s %12.4f %12.4f  ratio %.3f  bound %.2f  %s\n", row.Metric, row.A, row.B, row.Ratio, row.Bound, verdict)
				sum.AA = append(sum.AA, row)
			}
		}
	}
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(blob))
	if len(names) == 1 && !aa {
		if err := printContractLine(last, cfg.traced); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if aaFailed {
		return 2
	}
	return 0
}

// printContractLine prints the driver's result object: it must be the
// last line of standard output.
func printContractLine(r *result, traced bool) error {
	w := r.out(traced)
	metrics := w.EndToEnd
	if traced {
		metrics = w.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
