package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/tables"
)

// These tests hold the process to account through run(), the function
// main() calls: the measurement-side gates scripts/ci.sh used to drive
// with a built binary, grep and cmp. What the engine does behind the
// flags is internal/harness's and internal/plan's to test.

// studyArgs is the BT campaign every gate runs: tiny grid, two trips.
var studyArgs = []string{"-bench", "BT", "-grid", "8", "-trips", "2", "-procs", "4"}

// couple runs one in-process couple invocation of the study with extra
// flags and returns its stdout, stderr and error.
func couple(extra ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(context.Background(), append(append([]string{}, studyArgs...), extra...), &out, &errb)
	return out.String(), errb.String(), err
}

// TestParallelCampaignUnderRace drives a 4-worker campaign: the
// scheduler, cache and shared obs sinks run concurrently, so under
// `go test -race` any data race in the pipeline fails here.
func TestParallelCampaignUnderRace(t *testing.T) {
	dir := t.TempDir()
	out, stderr, err := couple("-chains", "2,5", "-blocks", "2", "-parallel", "4",
		"-metrics-out", filepath.Join(dir, "m.json"), "-trace-out", filepath.Join(dir, "t.json"))
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(out, "Coupling: 5 kernels") {
		t.Errorf("no full-ring prediction in the report:\n%s", out)
	}
}

// TestWarmCacheDirIsHitServedAndByteIdentical: a second run against a
// warm -cache-dir runs no world and prints the same study byte for byte.
func TestWarmCacheDirIsHitServedAndByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-chains", "2", "-blocks", "1", "-cache-dir", dir}
	cold, stderr, err := couple(args...)
	if err != nil {
		t.Fatalf("cold run: %v\nstderr:\n%s", err, stderr)
	}
	warm, stderr, err := couple(args...)
	if err != nil {
		t.Fatalf("warm run: %v\nstderr:\n%s", err, stderr)
	}
	var hits, misses, planned int
	if _, err := fmt.Sscanf(stderr, "couple: cache hits=%d misses=%d planned=%d", &hits, &misses, &planned); err != nil {
		t.Fatalf("no cache statistics on stderr (%v):\n%s", err, stderr)
	}
	if hits == 0 || hits != planned || misses != 0 {
		t.Errorf("warm run: hits=%d misses=%d planned=%d, want every job a hit", hits, misses, planned)
	}
	if warm != cold {
		t.Errorf("cached study differs from the measured one\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestAnalyticAgreesWithMeasured: the analytic backend's per-window
// coupling bands must contain the measured values on most windows of the
// BT study. The band is widened to ±60% (the model is structural, not
// precise) and 3 of the 6 windows may disagree. Tiny-grid windows last
// microseconds, so a loaded host scatters one campaign in twenty past
// that; the claim is about systematic drift, which fails every campaign,
// so the test takes the best of three.
func TestAnalyticAgreesWithMeasured(t *testing.T) {
	const campaigns = 3
	for c := 1; c <= campaigns; c++ {
		out, stderr, err := couple("-chains", "2,5", "-blocks", "5",
			"-backend", "measured+analytic", "-analytic-band", "0.6")
		if err != nil {
			t.Fatalf("run: %v\nstderr:\n%s", err, stderr)
		}
		i := strings.LastIndex(out, "analytic agreement:")
		if i < 0 {
			t.Fatalf("no agreement line in the report:\n%s", out)
		}
		var in, total int
		if _, err := fmt.Sscanf(out[i:], "analytic agreement: %d/%d windows in band", &in, &total); err != nil {
			t.Fatalf("agreement line %q: %v", out[i:], err)
		}
		if total != 6 {
			t.Fatalf("%d windows compared, want 6:\n%s", total, out)
		}
		if total-in <= 3 {
			return
		}
		t.Logf("campaign %d: analytic model disagrees with measurement on %d of %d windows\n%s", c, total-in, total, out)
	}
	t.Errorf("analytic model disagreed with measurement on more than 3 of 6 windows in each of %d campaigns", campaigns)
}

// TestCachedBackendCountsItsHits: -backend cached over a warm -cache-dir
// reads every planned job from the cache, and its -metrics-out manifest
// counts each of them as a hit, as the measured path's manifest does.
func TestCachedBackendCountsItsHits(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-chains", "2", "-blocks", "1", "-cache-dir", dir}
	_, stderr, err := couple(args...)
	if err != nil {
		t.Fatalf("warming run: %v\nstderr:\n%s", err, stderr)
	}
	var hits, misses, planned int64
	if _, err := fmt.Sscanf(stderr, "couple: cache hits=%d misses=%d planned=%d", &hits, &misses, &planned); err != nil || planned == 0 {
		t.Fatalf("no planned-job count on the warming run's stderr (%v):\n%s", err, stderr)
	}
	path := filepath.Join(dir, "m.json")
	out, stderr, err := couple(append(args, "-backend", "cached", "-metrics-out", path)...)
	if err != nil {
		t.Fatalf("cached run: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(out, "provenance cached") {
		t.Errorf("not answered from the cache:\n%s", out)
	}
	man, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := man.Metrics.Counter("harness.cache.hit"); c.Value != planned {
		t.Errorf("manifest harness.cache.hit = %d, want the %d planned jobs", c.Value, planned)
	}
}

// TestSurvivesSeededDelayFault: under a fixed-seed message-delay schedule
// the pipeline degrades, never crashes — the run completes with a report.
func TestSurvivesSeededDelayFault(t *testing.T) {
	out, stderr, err := couple("-chains", "2", "-blocks", "1",
		"-fault-spec", "delay:p=0.2,mean=100us,jitter=0.5", "-fault-seed", "7")
	if err != nil {
		t.Fatalf("run under delay faults: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(out, "Coupling: 2 kernels") {
		t.Errorf("no prediction in the report:\n%s", out)
	}
}

// TestEveryPathClosesTheSink: the backend and error paths used to leave
// run() without sink.Close, so -metrics-out wrote nothing there and
// -pprof left its CPU profile running (which fails the next -pprof run in
// this process).
func TestEveryPathClosesTheSink(t *testing.T) {
	load := func(t *testing.T, path string) *obs.Manifest {
		t.Helper()
		man, err := obs.ReadManifestFile(path)
		if err != nil {
			t.Fatalf("manifest: %v", err)
		}
		if man.Tool != "couple" || man.Benchmark != "BT" || man.Metrics == nil {
			t.Errorf("manifest = %+v, want couple's BT run with a metric snapshot", man)
		}
		return man
	}
	t.Run("backend", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "m.json")
		if _, stderr, err := couple("-backend", "analytic", "-metrics-out", path, "-pprof", filepath.Join(dir, "cpu.prof")); err != nil {
			t.Fatalf("run: %v\nstderr:\n%s", err, stderr)
		}
		if man := load(t, path); man.Health != nil {
			t.Errorf("clean run recorded health %+v", man.Health)
		}
	})
	t.Run("error", func(t *testing.T) {
		dir := t.TempDir()
		path := filepath.Join(dir, "m.json")
		// BT needs a square rank count.
		_, _, err := couple("-procs", "3", "-metrics-out", path, "-pprof", filepath.Join(dir, "cpu.prof"))
		if err == nil || strings.Contains(err.Error(), "pprof") {
			t.Fatalf("3 ranks: error %v, want the workload's refusal", err)
		}
		man := load(t, path)
		if man.Health == nil || len(man.Health.Errors) != 1 || man.Health.Errors[0] != err.Error() {
			t.Errorf("manifest health = %+v, want the returned error %q", man.Health, err)
		}
	})
}

// refItem is the reference configuration the coupling-borrowing gates
// lend from, as a one-point -lattice; refArgs measures it.
const refItem = "bench=BT&grid=6&trips=2&blocks=1"

var refArgs = []string{"-bench", "BT", "-grid", "6", "-trips", "2", "-procs", "4", "-blocks", "1", "-chains", "2,5"}

// TestRefReusesCachedCouplings: with a one-point -lattice the grid-8
// study measures its 7 isolated kernels and 3 application runs and not
// one window — the coupling values are the grid-6 study's, read from the
// cache — and it does so through the engine: cached, counted, and
// fault-tolerant.
func TestRefReusesCachedCouplings(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	var out, errb bytes.Buffer
	if err := run(context.Background(), append(append([]string{}, refArgs...), "-cache-dir", cache), &out, &errb); err != nil {
		t.Fatalf("measuring the reference: %v\nstderr:\n%s", err, errb.String())
	}

	manifest := filepath.Join(dir, "m.json")
	args := []string{"-chains", "2,5", "-blocks", "1", "-cache-dir", cache, "-lattice", refItem}
	cold, stderr, err := couple(append(args, "-metrics-out", manifest)...)
	if err != nil {
		t.Fatalf("-lattice run: %v\nstderr:\n%s", err, stderr)
	}
	if want := "couple: cache hits=0 misses=10 planned=10\n"; stderr != want {
		t.Errorf("stderr = %q, want %q (7 isolated kernels + 3 application runs)", stderr, want)
	}
	for _, row := range []string{"couplings: borrowed from lattice " + refItem, "Summation", "Coupling: 2 kernels", "Coupling: 5 kernels"} {
		if !strings.Contains(cold, row) {
			t.Errorf("report lacks %q:\n%s", row, cold)
		}
	}
	man, err := obs.ReadManifestFile(manifest)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	for name, want := range map[string]int64{
		"harness.measure.isolated.count": 7,
		"harness.measure.actual.count":   3,
		"harness.measure.window.count":   0,
	} {
		if c, _ := man.Metrics.Counter(name); c.Value != want {
			t.Errorf("manifest counter %s = %d, want %d", name, c.Value, want)
		}
	}

	warm, stderr, err := couple(args...)
	if err != nil {
		t.Fatalf("second -lattice run: %v\nstderr:\n%s", err, stderr)
	}
	if want := "couple: cache hits=10 misses=0 planned=10\n"; stderr != want {
		t.Errorf("second run stderr = %q, want %q", stderr, want)
	}
	if warm != cold {
		t.Errorf("second run differs from the first\nfirst:\n%s\nsecond:\n%s", cold, warm)
	}

	faulted, stderr, err := couple(append(args, "-fault-spec", "delay:p=0.2,mean=200us", "-fault-seed", "3")...)
	if err != nil {
		t.Fatalf("-lattice under delay faults: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(faulted, "Coupling: 5 kernels") {
		t.Errorf("no prediction in the faulted report:\n%s", faulted)
	}
}

// TestRefFlagConflicts: a -lattice or -analytic-band the run would not
// read is an error naming the flags involved, never a silently different
// study.
func TestRefFlagConflicts(t *testing.T) {
	dir := t.TempDir()
	// never is a -cache-dir only a backend that reads it may create.
	never := filepath.Join(dir, "never")
	for _, tc := range []struct {
		name string
		args []string
		want []string
	}{
		{"no cache", []string{"-lattice", refItem}, []string{"-lattice", "-cache-dir"}},
		{"analytic backend", []string{"-lattice", refItem, "-backend", "analytic"}, []string{"-lattice", "-backend analytic"}},
		{"cached backend", []string{"-lattice", refItem, "-cache-dir", dir, "-backend", "cached"}, []string{"-lattice", "-backend cached"}},
		{"compared backend", []string{"-lattice", refItem, "-cache-dir", dir, "-backend", "measured+analytic"}, []string{"-lattice", "-backend measured+analytic"}},
		{"two items", []string{"-lattice", refItem + ";bench=BT&grid=8&chains=2", "-cache-dir", dir}, []string{"-lattice", "names chains"}},
		{"no item", []string{"-lattice", " ", "-cache-dir", dir}, []string{"-lattice", "empty"}},
		{"names chains", []string{"-lattice", refItem + "&chains=2", "-cache-dir", dir}, []string{"-lattice", "chains"}},
		{"unknown parameter", []string{"-lattice", "bench=BT&gird=6", "-cache-dir", dir}, []string{"-lattice", `"gird"`}},
		{"band on measured", []string{"-analytic-band", "0.6"}, []string{"-analytic-band", "-backend measured"}},
		{"band on interpolated", []string{"-analytic-band", "0.6", "-backend", "interpolated", "-lattice", refItem}, []string{"-analytic-band", "-backend interpolated"}},
		{"parallel on analytic", []string{"-parallel", "1", "-backend", "analytic"}, []string{"-parallel", "-backend analytic"}},
		{"fault-spec on interpolated", []string{"-fault-spec", "delay:p=0.2,mean=100us", "-backend", "interpolated", "-lattice", refItem, "-cache-dir", dir}, []string{"-fault-spec", "-backend interpolated"}},
		{"fault-seed on analytic", []string{"-fault-seed", "7", "-backend", "analytic"}, []string{"-fault-seed", "-backend analytic"}},
		{"fault-retries on cached", []string{"-fault-retries", "5", "-cache-dir", dir, "-backend", "cached"}, []string{"-fault-retries", "-backend cached"}},
		{"watchdog on analytic", []string{"-watchdog", "1s", "-backend", "analytic"}, []string{"-watchdog", "-backend analytic"}},
		{"cache-dir on analytic", []string{"-cache-dir", never, "-backend", "analytic"}, []string{"-cache-dir", "-backend analytic"}},
		{"net and cache-dir on analytic", []string{"-net", "-cache-dir", never, "-backend", "analytic"}, []string{"-cache-dir", "-backend analytic"}},
		{"net on analytic", []string{"-net", "-backend", "analytic"}, []string{"-net", "-backend analytic"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, _, err := couple(tc.args...)
			if err == nil {
				t.Fatalf("accepted:\n%s", out)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
			if strings.Contains(out, "Predictions") {
				t.Errorf("a refused run printed a study:\n%s", out)
			}
			if _, err := os.Stat(never); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("a refused run created -cache-dir %s (stat: %v)", never, err)
			}
		})
	}

	// An unmeasured lattice is a cache miss, with the command that
	// measures it, found before the target is measured.
	_, _, err := couple("-chains", "2,5", "-cache-dir", dir, "-lattice", refItem)
	if !errors.Is(err, harness.ErrCacheMiss) {
		t.Fatalf("unmeasured lattice: err = %v, want harness.ErrCacheMiss", err)
	}
	if want := "couple -bench BT -class S -procs 4 -grid 6 -trips 2 -blocks 1 -passes 1 -chains 2,5 -cache-dir " + dir; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q lacks the warming command %q", err, want)
	}
	if log, err := os.ReadFile(filepath.Join(dir, "measurements.log")); err != nil || len(log) != 0 {
		t.Errorf("a refused lattice run left measurements behind (read err %v):\n%s", err, log)
	}
}

// TestFaultRetriesIsTheRetryBudget: a crash in the study's first world is
// fatal with -fault-retries 0, and one retry rebuilds it with
// -fault-retries 1 — the crash fires once.
func TestFaultRetriesIsTheRetryBudget(t *testing.T) {
	crash := []string{"-chains", "2", "-blocks", "1", "-fault-spec", "crash:rank=1,at=5"}
	if _, stderr, err := couple(append(crash, "-fault-retries", "0")...); err == nil {
		t.Errorf("-fault-retries 0: a crashed world was retried\nstderr:\n%s", stderr)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if _, stderr, err := couple(append(crash, "-fault-retries", "1", "-metrics-out", path)...); err != nil {
		t.Fatalf("-fault-retries 1: %v\nstderr:\n%s", err, stderr)
	}
	man, err := obs.ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Health == nil || len(man.Health.Retries) != 1 {
		t.Errorf("-fault-retries 1: manifest health %+v, want the one retry", man.Health)
	}
}

// TestInterpolatedReadsLatticeAtQueryChains: lattice items name no chains,
// and every point is read at the query's — so a lattice warmed at 2,3
// answers an interpolated query at 2,3, triples included.
func TestInterpolatedReadsLatticeAtQueryChains(t *testing.T) {
	dir := t.TempDir()
	for _, grid := range []string{"6", "10"} {
		var out, errb bytes.Buffer
		args := []string{"-bench", "BT", "-grid", grid, "-trips", "2", "-procs", "4", "-blocks", "1", "-chains", "2,3", "-cache-dir", dir}
		if err := run(context.Background(), args, &out, &errb); err != nil {
			t.Fatalf("warming grid %s: %v\nstderr:\n%s", grid, err, errb.String())
		}
	}
	out, stderr, err := couple("-chains", "2,3", "-blocks", "1", "-cache-dir", dir, "-backend", "interpolated",
		"-lattice", "bench=BT&grid=6&trips=2&blocks=1;bench=BT&grid=10&trips=2&blocks=1")
	if err != nil {
		t.Fatalf("interpolated run: %v\nstderr:\n%s", err, stderr)
	}
	for _, row := range []string{"provenance interpolated", "Coupling: 2 kernels", "Coupling: 3 kernels"} {
		if !strings.Contains(out, row) {
			t.Errorf("report lacks %q:\n%s", row, out)
		}
	}
}

// TestMeasuredPathPlansTheServersJobs: the jobs couple's measured path
// stores are exactly the ones kcserved's engine plans for the same query,
// so a couple warm-up serves the server with hits only. -chains is read
// as a served query's chains are, sorted and without repeats.
func TestMeasuredPathPlansTheServersJobs(t *testing.T) {
	dir := t.TempDir()
	out, stderr, err := couple("-chains", "3,2,3", "-cache-dir", dir)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr)
	}
	if !strings.Contains(out, "chains=[2 3]\n") {
		t.Errorf("-chains 3,2,3 did not run chains [2 3]:\n%s", out)
	}
	q, err := tables.ParseQuery(url.Values{"bench": {"BT"}, "grid": {"8"}, "trips": {"2"}, "procs": {"4"}, "chains": {"2,3"}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := tables.BackendConfig{}.Engine(q)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := eng.Plan(q.Trips, q.Chains)
	if err != nil {
		t.Fatal(err)
	}
	var planned []string
	for _, j := range jobs {
		planned = append(planned, j.Key())
	}
	log, err := os.ReadFile(filepath.Join(dir, "measurements.log"))
	if err != nil {
		t.Fatal(err)
	}
	var stored []string
	for _, line := range strings.Split(strings.TrimSpace(string(log)), "\n") {
		stored = append(stored, strings.SplitN(line, " ", 2)[0])
	}
	slices.Sort(planned)
	slices.Sort(stored)
	if !slices.Equal(planned, stored) {
		t.Errorf("couple stored jobs\n%v\nthe server's engine plans\n%v", stored, planned)
	}
}

// TestStudyFlagsParseAsAServedQuery: the flags that name the study are
// read by tables.ParseQuery, so a configuration a served query refuses is
// refused here with ParseQuery's message, before any sink is opened.
func TestStudyFlagsParseAsAServedQuery(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"chains", "1"},
		{"trips", "-1"},
		{"procs", "0"},
		{"grid", "-1"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			_, want := tables.ParseQuery(url.Values{tc.flag: {tc.value}})
			if want == nil {
				t.Fatalf("ParseQuery accepts %s=%s", tc.flag, tc.value)
			}
			dir := t.TempDir()
			out, _, err := couple("-"+tc.flag, tc.value, "-metrics-out", filepath.Join(dir, "m.json"), "-trace-out", filepath.Join(dir, "t.json"))
			if err == nil || err.Error() != want.Error() {
				t.Errorf("-%s %s: error %v, want ParseQuery's %q\n%s", tc.flag, tc.value, err, want, out)
			}
			if written, _ := os.ReadDir(dir); len(written) != 0 {
				t.Errorf("-%s %s: a refused run wrote %v", tc.flag, tc.value, written)
			}
		})
	}
}

// TestHelpIsPinned: the flags' -h text, defaults included, is the
// golden's, so the shared presets behind the defaults cannot drift.
func TestHelpIsPinned(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run -h: %v, want flag.ErrHelp", err)
	}
	want, err := os.ReadFile("testdata/help.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stderr.String(); got != string(want) {
		t.Errorf("-h output changed:\n%s\nwant:\n%s", got, want)
	}
}
