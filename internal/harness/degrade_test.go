package harness

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

var update = flag.Bool("update", false, "rewrite golden files")

// flakyWorkload fails window measurements a scripted number of times:
// transient[key] failures are served before success; permanent[key] fails
// forever. actualFails makes the first n actual runs fail.
type flakyWorkload struct {
	*Synthetic
	transient   map[string]int
	permanent   map[string]bool
	actualFails int
}

func (f *flakyWorkload) MeasureWindow(window []string, o Options) (float64, error) {
	key := core.Key(window)
	if f.permanent[key] {
		return 0, fmt.Errorf("window %s: injected permanent failure", key)
	}
	if f.transient[key] > 0 {
		f.transient[key]--
		return 0, fmt.Errorf("window %s: injected transient failure", key)
	}
	return f.Synthetic.MeasureWindow(window, o)
}

func (f *flakyWorkload) MeasureActual(trips int, o Options) (float64, error) {
	if f.actualFails > 0 {
		f.actualFails--
		return 0, errors.New("injected actual-run failure")
	}
	return f.Synthetic.MeasureActual(trips, o)
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	f := &flakyWorkload{
		Synthetic:   fourKernelSynthetic(),
		transient:   map[string]int{"B|C": 2, "A": 1},
		actualFails: 1,
	}
	var slept []time.Duration
	reg := obs.NewRegistry()
	study, err := RunStudy(f, 10, []int{2}, Options{
		MaxRetries: 2, RetryBackoff: time.Millisecond, Metrics: reg,
		sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The numbers must match a clean run exactly: retries recover, they
	// don't distort.
	clean, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if study.Actual != clean.Actual || study.Couplings[2].Predicted != clean.Couplings[2].Predicted {
		t.Errorf("retried study drifted: actual %v vs %v", study.Actual, clean.Actual)
	}
	if got := len(study.Health.Retries); got != 4 {
		t.Fatalf("recorded %d retries, want 4 (2x B|C, 1x A, 1x actual): %+v", got, study.Health.Retries)
	}
	if len(study.Health.FailedWindows) != 0 || len(study.Health.Degraded) != 0 {
		t.Errorf("transient failures must not degrade: %+v", study.Health)
	}
	if c, _ := reg.Snapshot().Counter("harness.retry.count"); c.Value != 4 {
		t.Errorf("harness.retry.count = %d, want 4", c.Value)
	}
	// Backoff doubles per attempt within one measurement: isolated A
	// retries once (base), then B|C fails twice (base, 2·base), then the
	// actual run once (base).
	want := []time.Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond, time.Millisecond}
	if !reflect.DeepEqual(slept, want) {
		t.Errorf("backoff sleeps = %v, want %v", slept, want)
	}
}

func TestRetryBudgetExhaustedIsFatalWithoutDegrade(t *testing.T) {
	f := &flakyWorkload{Synthetic: fourKernelSynthetic(), permanent: map[string]bool{"B|C": true}}
	_, err := RunStudy(f, 10, []int{2}, Options{MaxRetries: 2, RetryBackoff: time.Microsecond})
	if err == nil || !strings.Contains(err.Error(), "injected permanent failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestIsolatedFailureStaysFatalUnderDegrade(t *testing.T) {
	f := &flakyWorkload{Synthetic: fourKernelSynthetic(), permanent: map[string]bool{"C": true}}
	_, err := RunStudy(f, 10, []int{2}, Options{Degrade: true, MaxRetries: 1, RetryBackoff: time.Microsecond})
	if err == nil || !strings.Contains(err.Error(), "isolated C") {
		t.Fatalf("err = %v, want fatal isolated failure even when degrading", err)
	}
}

func TestDegradePartialWindowSet(t *testing.T) {
	// Ring A,B,C,D at L=2 has windows A|B, B|C, C|D, D|A. Losing B|C
	// leaves B and C each with one surviving window: partial coefficients.
	f := &flakyWorkload{Synthetic: fourKernelSynthetic(), permanent: map[string]bool{"B|C": true}}
	reg := obs.NewRegistry()
	study, err := RunStudy(f, 10, []int{2}, Options{Degrade: true, MaxRetries: 1, RetryBackoff: time.Microsecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Health.FailedWindows) != 1 || study.Health.FailedWindows[0].Key != "B|C" {
		t.Fatalf("failed windows = %+v", study.Health.FailedWindows)
	}
	modes := map[string]string{}
	for _, d := range study.Health.Degraded {
		if d.ChainLen != 2 {
			t.Errorf("degraded at chain %d", d.ChainLen)
		}
		modes[d.Kernel] = d.Mode
	}
	if !reflect.DeepEqual(modes, map[string]string{"B": ModePartial, "C": ModePartial}) {
		t.Errorf("degraded modes = %v", modes)
	}
	// A and D keep their full window sets: their coefficients must equal
	// the clean study's exactly.
	clean, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"A", "D"} {
		if got, want := study.Details[2].Coefficients[k], clean.Details[2].Coefficients[k]; got != want {
			t.Errorf("coefficient %s = %v, want clean %v", k, got, want)
		}
	}
	// The degraded prediction should still be sane: within a few percent
	// of actual on this mildly interacting workload.
	if re := study.Couplings[2].RelErr; re > 0.05 {
		t.Errorf("degraded relative error %v", re)
	}
	if c, _ := reg.Snapshot().Counter("harness.window.failed"); c.Value != 1 {
		t.Errorf("harness.window.failed = %d", c.Value)
	}
	if c, _ := reg.Snapshot().Counter("harness.coefficient.degraded"); c.Value != 2 {
		t.Errorf("harness.coefficient.degraded = %d", c.Value)
	}
}

func TestDegradeShorterChainLadder(t *testing.T) {
	// Fail every length-3 window: the ladder measures their length-2
	// sub-windows and every coefficient comes from shorter chains.
	f := &flakyWorkload{Synthetic: fourKernelSynthetic(), permanent: map[string]bool{}}
	for _, w := range [][]string{{"A", "B", "C"}, {"B", "C", "D"}, {"C", "D", "A"}, {"D", "A", "B"}} {
		f.permanent[core.Key(w)] = true
	}
	study, err := RunStudy(f, 10, []int{3}, Options{Degrade: true, RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(study.Health.FailedWindows); got != 4 {
		t.Fatalf("failed windows = %+v", study.Health.FailedWindows)
	}
	if got := len(study.Health.Degraded); got != 4 {
		t.Fatalf("degraded = %+v", study.Health.Degraded)
	}
	for _, d := range study.Health.Degraded {
		if d.Mode != ModeShorterChain {
			t.Errorf("kernel %s mode %s, want %s", d.Kernel, d.Mode, ModeShorterChain)
		}
	}
	// The ladder measured contiguous length-2 sub-windows; they feed the
	// fallback coefficients, so the prediction still sees the A→B and C→D
	// interactions and beats nothing-at-all badly wrong.
	if re := study.Couplings[3].RelErr; re > 0.05 {
		t.Errorf("shorter-chain relative error %v", re)
	}
	// Sub-window measurements appear in provenance as windows.
	subs := 0
	for _, r := range study.Provenance {
		if r.Kind == plan.KindWindow {
			subs++
		}
	}
	if subs == 0 {
		t.Error("ladder sub-window measurements missing from provenance")
	}
}

func TestDegradeAllTheWayToSummation(t *testing.T) {
	// Every multi-kernel window fails: the ladder runs dry and every
	// coefficient falls back to 1 — the coupling "prediction" must equal
	// the summation baseline exactly.
	f := &flakyWorkload{Synthetic: fourKernelSynthetic(), permanent: map[string]bool{}}
	for _, key := range []string{
		"A|B", "B|C", "C|D", "D|A",
		"A|B|C", "B|C|D", "C|D|A", "D|A|B",
	} {
		f.permanent[key] = true
	}
	study, err := RunStudy(f, 10, []int{3}, Options{Degrade: true, RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range study.Health.Degraded {
		if d.Mode != ModeSummation {
			t.Errorf("kernel %s mode %s, want %s", d.Kernel, d.Mode, ModeSummation)
		}
	}
	if len(study.Health.Degraded) != 4 {
		t.Fatalf("degraded = %+v", study.Health.Degraded)
	}
	if study.Couplings[3].Predicted != study.Summation.Predicted {
		t.Errorf("summation fallback %v != summation %v", study.Couplings[3].Predicted, study.Summation.Predicted)
	}
	for k, c := range study.Details[3].Coefficients {
		if c != 1 {
			t.Errorf("coefficient %s = %v, want 1", k, c)
		}
	}
}

// TestDegradeIsZeroCostWhenClean pins the zero-cost-abstraction
// requirement at the harness layer: with no failures, a Degrade-enabled
// study is deep-equal to a plain one.
func TestDegradeIsZeroCostWhenClean(t *testing.T) {
	plain, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hardened, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 3}, Options{Degrade: true, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, hardened) {
		t.Errorf("Degrade+retries changed a clean study:\nplain:    %+v\nhardened: %+v", plain, hardened)
	}
	if RenderStudy(plain) != RenderStudy(hardened) {
		t.Error("rendered reports differ on a clean study")
	}
}

// TestDegradeFullRingExpectsOneWindow: at L = len(ring) there is one
// window, so each kernel expects one, not L. Measured, it leaves nothing
// degraded and the prediction is the clean one bit for bit; lost, every
// kernel goes down the ladder — to the measured shorter chain that holds
// it, else to summation.
func TestDegradeFullRingExpectsOneWindow(t *testing.T) {
	app := core.App{Name: "toy", Pre: []string{"INIT"}, Loop: core.Ring{"A", "B", "C", "D"}, Post: []string{"FINAL"}, Trips: 10}
	m := core.Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	for k, v := range map[string]float64{"INIT": 2, "FINAL": 1, "A": 1, "B": 2, "C": 0.5, "D": 1.5} {
		m.Isolated[k] = v
	}
	m.Window["A|B|C|D"] = 5.1
	m.Window["A|B|C"] = 3.2
	measured := map[string][]string{"A|B|C|D": {"A", "B", "C", "D"}, "A|B|C": {"A", "B", "C"}}
	clean, err := app.CouplingPrediction(m, 4, core.CoefficientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pred, degraded, err := degradedPrediction(app, m, 4, measured)
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 0 {
		t.Errorf("full window measured, degraded = %+v", degraded)
	}
	if !reflect.DeepEqual(pred, clean) {
		t.Errorf("full window measured: prediction %+v, want the clean %+v", pred, clean)
	}

	delete(m.Window, "A|B|C|D")
	delete(measured, "A|B|C|D")
	pred, degraded, err = degradedPrediction(app, m, 4, measured)
	if err != nil {
		t.Fatal(err)
	}
	want := []CoefficientHealth{
		{Kernel: "A", ChainLen: 4, Mode: ModeShorterChain},
		{Kernel: "B", ChainLen: 4, Mode: ModeShorterChain},
		{Kernel: "C", ChainLen: 4, Mode: ModeShorterChain},
		{Kernel: "D", ChainLen: 4, Mode: ModeSummation},
	}
	if !reflect.DeepEqual(degraded, want) {
		t.Errorf("full window lost, degraded = %+v, want %+v", degraded, want)
	}
	abc, err := m.CouplingOf([]string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if a, d := pred.Coefficients["A"], pred.Coefficients["D"]; a != abc.C*abc.Chained/abc.Chained || d != 1 {
		t.Errorf("full window lost: α_A = %v, α_D = %v, want C_ABC = %v and 1", a, d, abc.C)
	}
}

// TestDegradeZeroTimeWindowsFallToSummation: a kernel whose surviving
// length-L windows all measured 0 s has windows, just no weight — it falls
// to summation, not to the shorter-chain pool that holds it.
func TestDegradeZeroTimeWindowsFallToSummation(t *testing.T) {
	app := core.App{Name: "toy", Loop: core.Ring{"A", "B", "C", "D"}, Trips: 10}
	m := core.Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	for k, v := range map[string]float64{"A": 1, "B": 2, "C": 0.5, "D": 1.5} {
		m.Isolated[k] = v
	}
	measured := map[string][]string{}
	for key, v := range map[string]float64{"A|B": 0, "C|D": 2, "D|A": 2.5, "A|B|C": 3} {
		m.Window[key] = v
		measured[key] = strings.Split(key, "|")
	}
	pred, degraded, err := degradedPrediction(app, m, 2, measured)
	if err != nil {
		t.Fatal(err)
	}
	want := []CoefficientHealth{
		{Kernel: "B", ChainLen: 2, Mode: ModeSummation},
		{Kernel: "C", ChainLen: 2, Mode: ModePartial},
	}
	if !reflect.DeepEqual(degraded, want) {
		t.Errorf("degraded = %+v, want %+v", degraded, want)
	}
	if b := pred.Coefficients["B"]; b != 1 {
		t.Errorf("α_B = %v, want 1", b)
	}
}

func TestStudyHealthClean(t *testing.T) {
	var h StudyHealth
	if !h.Clean() {
		t.Error("zero health not clean")
	}
	h.Retries = append(h.Retries, RetryRecord{})
	if h.Clean() {
		t.Error("health with retries reported clean")
	}
}

// TestRenderStudyGolden pins the clean report rendering byte-for-byte —
// the couple command prints exactly this, so the golden doubles as the
// zero-cost output check.
func TestRenderStudyGolden(t *testing.T) {
	study, err := RunStudy(fourKernelSynthetic(), 10, []int{2, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := RenderStudy(study)
	golden := filepath.Join("testdata", "render_study.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("render drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestRenderStudyDegraded checks the degradation report renders: header
// counts, failed windows, per-kernel fallback modes, and the coefficient
// annotation.
func TestRenderStudyDegraded(t *testing.T) {
	f := &flakyWorkload{
		Synthetic: fourKernelSynthetic(),
		transient: map[string]int{"A": 1},
		permanent: map[string]bool{"B|C": true},
	}
	study, err := RunStudy(f, 10, []int{2}, Options{Degrade: true, MaxRetries: 1, RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderStudy(study)
	for _, want := range []string{
		"degradation report: 2 retries, 1 failed windows, 2 degraded coefficients",
		"Failed windows (after retry budget)",
		"B|C",
		"(degraded: partial)",
		"Degraded coefficients",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDegradedPredictionAccuracyOrdering(t *testing.T) {
	// Degradation should cost accuracy monotonically in this synthetic:
	// full L=4 beats partial, partial beats summation, on a workload with
	// real interactions. (Not a theorem — a sanity pin on the synthetic.)
	clean, err := RunStudy(fourKernelSynthetic(), 100, []int{4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &flakyWorkload{Synthetic: fourKernelSynthetic(), permanent: map[string]bool{}}
	for _, key := range []string{"A|B|C|D", "B|C|D|A", "C|D|A|B", "D|A|B|C",
		"A|B|C", "B|C|D", "C|D|A", "D|A|B",
		"A|B", "B|C", "C|D", "D|A"} {
		f.permanent[key] = true
	}
	floor, err := RunStudy(f, 100, []int{4}, Options{Degrade: true, RetryBackoff: time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Couplings[4].RelErr >= floor.Couplings[4].RelErr {
		t.Errorf("clean L=4 (%v) should beat the summation floor (%v)", clean.Couplings[4].RelErr, floor.Couplings[4].RelErr)
	}
	if math.Abs(floor.Couplings[4].Predicted-floor.Summation.Predicted) > 1e-12 {
		t.Errorf("total degradation should equal summation: %v vs %v", floor.Couplings[4].Predicted, floor.Summation.Predicted)
	}
}

// TestDegradedStudyPinned pins everything a degraded study records besides
// its predictions: the provenance in order — the ladder's sub-windows in
// the failed window's place, one served by the cache and one measured
// after a retry — the execution counts and the health, retries in the
// order they were spent. A second study loses two windows whose ladders
// share a sub-window that is lost too: it is measured, and recorded
// lost, once.
func TestDegradedStudyPinned(t *testing.T) {
	render := func(f *flakyWorkload, o Options) string {
		t.Helper()
		study, err := RunStudy(f, 10, []int{3}, o)
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, r := range study.Provenance {
			fmt.Fprintf(&got, "%s %s %g raw=%v trim=%g cached=%v\n", r.Kind, r.Key, r.Seconds, r.Raw, r.TrimFrac, r.Cached)
		}
		fmt.Fprintf(&got, "exec %+v\n", study.Exec)
		for _, r := range study.Health.Retries {
			fmt.Fprintf(&got, "retry %+v\n", r)
		}
		for _, w := range study.Health.FailedWindows {
			fmt.Fprintf(&got, "failed %+v\n", w)
		}
		for _, d := range study.Health.Degraded {
			fmt.Fprintf(&got, "degraded %+v\n", d)
		}
		return got.String()
	}
	f := &flakyWorkload{
		Synthetic: fourKernelSynthetic(),
		transient: map[string]int{"A": 1, "C|D": 1},
		permanent: map[string]bool{"B|C|D": true},
	}
	o := Options{Degrade: true, MaxRetries: 1, RetryBackoff: time.Microsecond, Cache: plan.NewCache()}
	in := planInputs(f, 10, []int{3}, o)
	if err := o.Cache.Put(plan.WindowJob(in, []string{"B", "C"}), plan.Result{Seconds: 2.25}); err != nil {
		t.Fatal(err)
	}
	got := render(f, o)
	const want = `isolated A 1 raw=[] trim=0 cached=false
isolated B 2 raw=[] trim=0 cached=false
isolated C 0.5 raw=[] trim=0 cached=false
isolated D 1.5 raw=[] trim=0 cached=false
isolated FINAL 1 raw=[] trim=0 cached=false
isolated INIT 2 raw=[] trim=0 cached=false
window A|B|C 3.2 raw=[] trim=0 cached=false
window B|C 2.25 raw=[] trim=0 cached=true
window C|D 2.4 raw=[] trim=0 cached=false
window C|D|A 3.4 raw=[] trim=0 cached=false
window D|A|B 4.2 raw=[] trim=0 cached=false
actual toy 54.00000000000001 raw=[54.00000000000001] trim=0 cached=false
exec {Planned:11 Executed:11 CacheHits:1}
retry {Key:A Kind:isolated Attempt:1 Err:window A: injected transient failure}
retry {Key:B|C|D Kind:window Attempt:1 Err:window B|C|D: injected permanent failure}
retry {Key:C|D Kind:window Attempt:1 Err:window C|D: injected transient failure}
failed {Key:B|C|D Err:window B|C|D: injected permanent failure}
degraded {Kernel:B ChainLen:3 Mode:partial}
degraded {Kernel:C ChainLen:3 Mode:partial}
degraded {Kernel:D ChainLen:3 Mode:partial}
`
	if got != want {
		t.Errorf("degraded study drifted:\n got:\n%s\nwant:\n%s", got, want)
	}

	f = &flakyWorkload{Synthetic: fourKernelSynthetic(), permanent: map[string]bool{"B|C|D": true, "C|D|A": true, "C|D": true}}
	got = render(f, Options{Degrade: true})
	const wantShared = `isolated A 1 raw=[] trim=0 cached=false
isolated B 2 raw=[] trim=0 cached=false
isolated C 0.5 raw=[] trim=0 cached=false
isolated D 1.5 raw=[] trim=0 cached=false
isolated FINAL 1 raw=[] trim=0 cached=false
isolated INIT 2 raw=[] trim=0 cached=false
window A|B|C 3.2 raw=[] trim=0 cached=false
window B|C 2.5 raw=[] trim=0 cached=false
window D|A 2.5 raw=[] trim=0 cached=false
window D|A|B 4.2 raw=[] trim=0 cached=false
actual toy 54.00000000000001 raw=[54.00000000000001] trim=0 cached=false
exec {Planned:11 Executed:11 CacheHits:0}
failed {Key:B|C|D Err:window B|C|D: injected permanent failure}
failed {Key:C|D Err:window C|D: injected permanent failure}
failed {Key:C|D|A Err:window C|D|A: injected permanent failure}
degraded {Kernel:A ChainLen:3 Mode:partial}
degraded {Kernel:B ChainLen:3 Mode:partial}
degraded {Kernel:C ChainLen:3 Mode:partial}
degraded {Kernel:D ChainLen:3 Mode:partial}
`
	if got != wantShared {
		t.Errorf("degraded study with a shared lost sub-window drifted:\n got:\n%s\nwant:\n%s", got, wantShared)
	}
}
