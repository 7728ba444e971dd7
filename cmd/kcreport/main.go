// Command kcreport renders the run manifest written by npbrun/couple's
// -metrics-out flag into paper-style tables: the run's identity and
// toolchain, the point-to-point traffic summary, the per-collective
// communication breakdown (count, bytes, time inside the operation), the
// per-kernel communication attribution, and — for couple runs — the
// harness measurement provenance counters.
//
//	kcreport bt-metrics.json
//	kcreport -all bt-metrics.json   # additionally dump every raw metric
//
// With -requests the input is a kcserved flight-recorder dump (from
// GET /debug/requests or the -flight-out flush) instead of a manifest:
// kcreport renders each retained request's span tree with per-stage
// timings, and -trace-out additionally exports the dump as a
// Chrome/Perfetto trace-event file, one process per request.
//
//	kcreport -requests flight.json
//	kcreport -requests -trace-out flight-perfetto.json flight.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "kcreport: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole process behind main; every failure, a usage error
// included, is a returned error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("kcreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	all := fs.Bool("all", false, "also dump every raw counter, gauge and histogram")
	requests := fs.Bool("requests", false, "input is a kcserved flight-recorder dump; render request span trees")
	traceOut := fs.String("trace-out", "", "with -requests, also export the dump as Perfetto trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: kcreport [-all] <manifest.json>\n       kcreport -requests [-trace-out f.json] <flight-dump.json>")
	}
	if *requests {
		return runRequests(stdout, fs.Arg(0), *traceOut)
	}
	man, err := obs.ReadManifestFile(fs.Arg(0))
	if err != nil {
		return err
	}

	printHeader(stdout, man)
	printHealth(stdout, man.Health)
	if man.Metrics == nil {
		fmt.Fprintln(stdout, "(manifest carries no metric snapshot)")
		return nil
	}
	snap := *man.Metrics
	printP2P(stdout, snap)
	printCollectives(stdout, snap)
	printKernels(stdout, snap)
	printHarness(stdout, snap)
	printGuard(stdout, snap)
	if *all {
		printRaw(stdout, snap)
	}
	return nil
}

func printHeader(w io.Writer, man *obs.Manifest) {
	tb := stats.NewTable("Run manifest", "Field", "Value")
	tb.AddRow("tool", man.Tool)
	if man.Benchmark != "" {
		run := fmt.Sprintf("%s class %s, %d procs, %d trips", man.Benchmark, man.Class, man.Procs, man.Trips)
		tb.AddRow("run", run)
	}
	tb.AddRow("toolchain", fmt.Sprintf("%s %s/%s, %d cpus", man.GoVersion, man.OS, man.Arch, man.CPUs))
	if man.Module != "" {
		mod := man.Module
		if man.ModuleSum != "" {
			mod += " @ " + man.ModuleSum
		}
		tb.AddRow("module", mod)
	}
	if man.UnixSeconds != 0 {
		tb.AddRow("started", time.Unix(man.UnixSeconds, 0).UTC().Format(time.RFC3339))
	}
	if man.WallSeconds > 0 {
		tb.AddRow("wall time", stats.Seconds(man.WallSeconds))
	}
	keys := make([]string, 0, len(man.Extra))
	for k := range man.Extra {
		keys = append(keys, k)
	}
	for _, k := range sortedStrings(keys) {
		tb.AddRow(k, man.Extra[k])
	}
	fmt.Fprintln(w, tb.String())
}

// printHealth renders the fault-and-degradation record of the run: the
// injected schedule (spec, seed, tally, digest), the harness retries,
// windows that stayed unmeasurable, coefficients flagged Degraded, and
// any structured errors. Fault-free clean runs have no health block and
// print nothing here.
func printHealth(w io.Writer, h *obs.Health) {
	if h == nil {
		return
	}
	tb := stats.NewTable("Fault injection and degradation", "Field", "Value")
	if h.FaultSpec != "" {
		tb.AddRow("fault spec", h.FaultSpec)
		tb.AddRowf("fault seed\t%d", h.FaultSeed)
	}
	if h.FaultTally != "" {
		tb.AddRow("fault tally", h.FaultTally)
	}
	if h.ScheduleDigest != "" {
		tb.AddRow("schedule digest", h.ScheduleDigest)
	}
	tb.AddRowf("retries\t%d", len(h.Retries))
	tb.AddRowf("failed windows\t%d", len(h.FailedWindows))
	tb.AddRowf("degraded coefficients\t%d", len(h.DegradedCoefficients))
	fmt.Fprintln(w, tb.String())

	list := func(title string, rows []string) {
		if len(rows) == 0 {
			return
		}
		t := stats.NewTable(title, "Entry")
		for _, r := range rows {
			t.AddRow(r)
		}
		fmt.Fprintln(w, t.String())
	}
	list("Retries", h.Retries)
	list("Failed windows", h.FailedWindows)
	list("Degraded coefficients", h.DegradedCoefficients)
	list("Errors", h.Errors)
	list("Fault events", h.FaultEvents)
}

func printP2P(w io.Writer, snap obs.Snapshot) {
	sends, ok1 := snap.Counter("mpi.send.count")
	recvs, ok2 := snap.Counter("mpi.recv.count")
	if !ok1 && !ok2 {
		return
	}
	sendBytes, _ := snap.Counter("mpi.send.bytes")
	recvBytes, _ := snap.Counter("mpi.recv.bytes")
	tb := stats.NewTable("MPI point-to-point traffic", "Metric", "Value")
	tb.AddRowf("sends\t%d", sends.Value)
	tb.AddRow("bytes sent", fmtBytes(sendBytes.Value))
	tb.AddRowf("receives\t%d", recvs.Value)
	tb.AddRow("bytes received", fmtBytes(recvBytes.Value))
	if h, ok := snap.Histogram("mpi.msg.bytes"); ok && h.Count > 0 {
		tb.AddRow("message size", fmt.Sprintf("mean %s  min %s  max %s",
			fmtBytes(int64(h.Mean())), fmtBytes(h.Min), fmtBytes(h.Max)))
	}
	if h, ok := snap.Histogram("mpi.recv.wait_ns"); ok && h.Count > 0 {
		tb.AddRow("recv wait", fmt.Sprintf("total %s  mean %s  max %s",
			fmtNs(h.Sum), fmtNs(int64(h.Mean())), fmtNs(h.Max)))
	}
	if h, ok := snap.Histogram("mpi.recv.transfer_ns"); ok && h.Count > 0 {
		tb.AddRow("net transfer", fmt.Sprintf("total %s  mean %s", fmtNs(h.Sum), fmtNs(int64(h.Mean()))))
	}
	if h, ok := snap.Histogram("mpi.queue.depth"); ok && h.Count > 0 {
		tb.AddRow("queue depth", fmt.Sprintf("mean %.1f  max %d", h.Mean(), h.Max))
	}
	if c, ok := snap.Counter("mpi.context.created"); ok && c.Value > 0 {
		tb.AddRowf("contexts created\t%d", c.Value)
	}
	fmt.Fprintln(w, tb.String())
}

func printCollectives(w io.Writer, snap obs.Snapshot) {
	// Collective ops present in the snapshot, discovered by name shape
	// mpi.collective.<op>.count; the snapshot is sorted, so ops render
	// alphabetically.
	tb := stats.NewTable("Collective operations", "Op", "Count", "Bytes (mean)", "Time inside (total)", "Time (mean)")
	rows := 0
	for _, c := range snap.Counters {
		op, ok := cut(c.Name, "mpi.collective.", ".count")
		if !ok || c.Value == 0 {
			continue
		}
		bytesH, _ := snap.Histogram("mpi.collective." + op + ".bytes")
		waitH, _ := snap.Histogram("mpi.collective." + op + ".wait_ns")
		tb.AddRow(op, fmt.Sprint(c.Value), fmtBytes(int64(bytesH.Mean())),
			fmtNs(waitH.Sum), fmtNs(int64(waitH.Mean())))
		rows++
	}
	if rows > 0 {
		fmt.Fprintln(w, tb.String())
	}
}

func printKernels(w io.Writer, snap obs.Snapshot) {
	// Per-kernel attribution, discovered from mpi.kernel.<name>.send.count.
	tb := stats.NewTable("Per-kernel communication", "Kernel", "Sends", "Bytes sent", "Recvs", "Bytes recvd", "Recv wait")
	rows := 0
	for _, c := range snap.Counters {
		k, ok := cut(c.Name, "mpi.kernel.", ".send.count")
		if !ok {
			continue
		}
		get := func(suffix string) int64 {
			v, _ := snap.Counter("mpi.kernel." + k + suffix)
			return v.Value
		}
		tb.AddRow(k, fmt.Sprint(c.Value), fmtBytes(get(".send.bytes")),
			fmt.Sprint(get(".recv.count")), fmtBytes(get(".recv.bytes")), fmtNs(get(".recv.wait_ns")))
		rows++
	}
	if rows > 0 {
		fmt.Fprintln(w, tb.String())
	}
}

func printHarness(w io.Writer, snap obs.Snapshot) {
	iso, ok := snap.Counter("harness.measure.isolated.count")
	if !ok {
		return
	}
	win, _ := snap.Counter("harness.measure.window.count")
	act, _ := snap.Counter("harness.measure.actual.count")
	blocks, _ := snap.Counter("harness.blocks.timed")
	tb := stats.NewTable("Harness measurement campaign", "Metric", "Value")
	tb.AddRowf("isolated measurements\t%d", iso.Value)
	tb.AddRowf("window measurements\t%d", win.Value)
	tb.AddRowf("actual runs\t%d", act.Value)
	tb.AddRowf("blocks timed\t%d", blocks.Value)
	if h, ok := snap.Histogram("harness.measure.per_pass_ns"); ok && h.Count > 0 {
		tb.AddRow("per-pass time", fmt.Sprintf("mean %s  min %s  max %s",
			fmtNs(int64(h.Mean())), fmtNs(h.Min), fmtNs(h.Max)))
	}
	fmt.Fprintln(w, tb.String())
}

// printGuard renders the serving guard's overload and failure
// accounting from a kcserved -metrics-out manifest: admission and shed
// totals broken down by cause, deadline expiries, degraded answers, and
// one row per circuit breaker (discovered from the
// guard.breaker.<dep>.state gauge) with its final state and transition
// counts. Silent for manifests from unguarded runs.
func printGuard(w io.Writer, snap obs.Snapshot) {
	c := func(name string) int64 {
		v, _ := snap.Counter(name)
		return v.Value
	}
	admitted := c("guard.admission.admitted")
	shed := c("serve.shed")
	deadlines := c("serve.deadline_exceeded")
	degraded := c("serve.degraded")
	if admitted == 0 && shed == 0 && deadlines == 0 && degraded == 0 && c("breaker.open") == 0 {
		return
	}
	tb := stats.NewTable("Serving guard", "Metric", "Value")
	tb.AddRowf("admitted\t%d", admitted)
	tb.AddRowf("queued before admission\t%d", c("guard.admission.waited"))
	tb.AddRowf("shed (503)\t%d", shed)
	tb.AddRowf("  queue full\t%d", c("guard.shed.queue_full"))
	tb.AddRowf("  deadline budget\t%d", c("guard.shed.deadline_budget"))
	tb.AddRowf("deadline exceeded (504)\t%d", deadlines)
	tb.AddRowf("degraded answers\t%d", degraded)
	tb.AddRowf("measurement retries\t%d", c("serve.measure.retry"))
	fmt.Fprintln(w, tb.String())

	bt := stats.NewTable("Circuit breakers", "Dependency", "State", "Opened", "Reopened", "Closed", "Fast-fails")
	rows := 0
	for _, g := range snap.Gauges {
		dep, ok := cut(g.Name, "guard.breaker.", ".state")
		if !ok {
			continue
		}
		get := func(suffix string) int64 { return c("guard.breaker." + dep + suffix) }
		bt.AddRow(dep, guard.BreakerState(g.Value).String(),
			fmt.Sprint(get(".opened")), fmt.Sprint(get(".reopened")),
			fmt.Sprint(get(".closed")), fmt.Sprint(get(".fastfail")))
		rows++
	}
	if rows > 0 {
		fmt.Fprintln(w, bt.String())
	}
}

func printRaw(w io.Writer, snap obs.Snapshot) {
	tb := stats.NewTable("All metrics", "Name", "Value")
	for _, c := range snap.Counters {
		tb.AddRowf("%s\t%d", c.Name, c.Value)
	}
	for _, g := range snap.Gauges {
		tb.AddRowf("%s\t%d", g.Name, g.Value)
	}
	for _, h := range snap.Histograms {
		tb.AddRow(h.Name, fmt.Sprintf("n=%d sum=%d min=%d max=%d", h.Count, h.Sum, h.Min, h.Max))
	}
	fmt.Fprintln(w, tb.String())
}

// cut returns the middle of s when it has the given prefix and suffix.
func cut(s, prefix, suffix string) (string, bool) {
	if !strings.HasPrefix(s, prefix) || !strings.HasSuffix(s, suffix) {
		return "", false
	}
	mid := s[len(prefix) : len(s)-len(suffix)]
	// Reject deeper names, e.g. mpi.kernel.X.recv.count against the
	// ".count" suffix probe for collectives.
	if strings.Contains(mid, ".") {
		return "", false
	}
	return mid, mid != ""
}

func sortedStrings(xs []string) []string {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
