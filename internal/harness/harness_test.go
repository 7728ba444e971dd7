package harness

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
)

// fourKernelSynthetic is a toy app with known interactions: A→B helps
// (constructive), C→D hurts (destructive), others neutral.
func fourKernelSynthetic() *Synthetic {
	return &Synthetic{
		SyntheticName: "toy",
		Pre:           []string{"INIT"},
		Loop:          []string{"A", "B", "C", "D"},
		Post:          []string{"FINAL"},
		Base: map[string]float64{
			"INIT": 2, "FINAL": 1,
			"A": 1.0, "B": 2.0, "C": 0.5, "D": 1.5,
		},
		Delta: map[string]float64{
			"A|B": -0.3,
			"C|D": +0.4,
		},
	}
}

func TestSyntheticWindowCost(t *testing.T) {
	s := fourKernelSynthetic()
	cases := []struct {
		window []string
		want   float64
	}{
		{[]string{"A"}, 1.0},                      // isolated: no self-interaction
		{[]string{"A", "B"}, 1 + 2 - 0.3},         // A→B delta; wrap B→A has none
		{[]string{"C", "D"}, 0.5 + 1.5 + 0.4},     // destructive
		{[]string{"B", "C"}, 2 + 0.5},             // neutral
		{[]string{"A", "B", "C", "D"}, 5.0 + 0.1}, // both deltas, wrap D→A none
		{[]string{"D", "A", "B"}, 4.5 - 0.3},      // wrap B→D has none
	}
	for _, c := range cases {
		got, err := s.WindowCost(c.window)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WindowCost(%v) = %v, want %v", c.window, got, c.want)
		}
	}
	if _, err := s.WindowCost([]string{"Z"}); err == nil {
		t.Error("unknown kernel should fail")
	}
	if _, err := s.WindowCost(nil); err == nil {
		t.Error("empty window should fail")
	}
}

func TestSyntheticActual(t *testing.T) {
	s := fourKernelSynthetic()
	got, err := s.MeasureActual(10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + 1 + 10*(5.0+0.1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("actual = %v, want %v", got, want)
	}
}

func TestRunStudyFullRingIsExact(t *testing.T) {
	// With chain length = ring length the coupling prediction reproduces
	// the actual time exactly on a noise-free synthetic workload.
	s := fourKernelSynthetic()
	study, err := RunStudy(s, 10, []int{4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := study.Couplings[4]
	if math.Abs(p.Predicted-study.Actual) > 1e-9 {
		t.Errorf("full-ring prediction %v != actual %v", p.Predicted, study.Actual)
	}
	if p.RelErr > 1e-12 {
		t.Errorf("full-ring relative error %v", p.RelErr)
	}
}

func TestRunStudyCouplingBeatsSummationWithInteractions(t *testing.T) {
	// The paper's headline: with real interactions the coupling predictor
	// is far more accurate than summation. The synthetic model's loop has
	// net +0.1 interaction per trip that summation cannot see.
	s := fourKernelSynthetic()
	study, err := RunStudy(s, 100, []int{2, 3, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if study.Summation.RelErr <= 0 {
		t.Fatalf("summation should err on an interacting workload, got %v", study.Summation.RelErr)
	}
	for _, L := range []int{2, 3, 4} {
		if got := study.Couplings[L].RelErr; got >= study.Summation.RelErr {
			t.Errorf("coupling L=%d relErr %v not better than summation %v", L, got, study.Summation.RelErr)
		}
	}
	// Best predictor should be a coupling predictor.
	if best := study.BestPredictor(); best.ChainLen == 0 {
		t.Errorf("best predictor is %q, expected a coupling predictor", best.Label)
	}
}

// TestBestPredictorBreaksTiesByChainLength: on equal relative error the
// summation baseline wins, then the shortest chain, on every call — the
// report's "best predictor:" line must not follow map order.
func TestBestPredictorBreaksTiesByChainLength(t *testing.T) {
	s := &Study{
		Summation: PredictionResult{Label: "Summation", RelErr: 0.2},
		Couplings: map[int]PredictionResult{
			5: {Label: "Coupling: 5 kernels", RelErr: 0.1, ChainLen: 5},
			3: {Label: "Coupling: 3 kernels", RelErr: 0.1, ChainLen: 3},
			4: {Label: "Coupling: 4 kernels", RelErr: 0.1, ChainLen: 4},
		},
	}
	for range 200 {
		if got := s.BestPredictor().ChainLen; got != 3 {
			t.Fatalf("best of a 3-way tie is chain length %d, want 3", got)
		}
	}
	s.Summation.RelErr = 0.1
	for range 200 {
		if got := s.BestPredictor(); got.ChainLen != 0 {
			t.Fatalf("best of a tie with summation is %q, want summation", got.Label)
		}
	}
}

func TestRunStudyNoInteractionAllPredictorsAgree(t *testing.T) {
	s := fourKernelSynthetic()
	s.Delta = nil // no interactions at all
	study, err := RunStudy(s, 50, []int{2, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if study.Summation.RelErr > 1e-12 {
		t.Errorf("summation should be exact without interactions, err %v", study.Summation.RelErr)
	}
	for _, L := range []int{2, 4} {
		if study.Couplings[L].RelErr > 1e-12 {
			t.Errorf("coupling L=%d should be exact, err %v", L, study.Couplings[L].RelErr)
		}
		// All couplings should be 1.
		for _, wc := range study.Details[L].Couplings {
			if math.Abs(wc.C-1) > 1e-12 {
				t.Errorf("window %s coupling %v, want 1", wc.Key(), wc.C)
			}
		}
	}
}

func TestRunStudyMeasurementPlan(t *testing.T) {
	// The study must measure exactly: every kernel isolated, plus each
	// distinct window of each requested length.
	s := fourKernelSynthetic()
	study, err := RunStudy(s, 10, []int{2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(study.Measurements.Isolated); got != 6 {
		t.Errorf("%d isolated measurements, want 6", got)
	}
	if got := len(study.Measurements.Window); got != 8 { // 4 pairs + 4 triples
		t.Errorf("%d window measurements, want 8", got)
	}
}

func TestRunStudyChainLenValidation(t *testing.T) {
	s := fourKernelSynthetic()
	if _, err := RunStudy(s, 10, []int{1}, Options{}); err == nil {
		t.Error("chain length 1 should be rejected")
	}
	if _, err := RunStudy(s, 10, []int{5}, Options{}); err == nil {
		t.Error("chain length beyond ring should be rejected")
	}
}

func TestRunStudyChainLensSorted(t *testing.T) {
	s := fourKernelSynthetic()
	study, err := RunStudy(s, 10, []int{4, 2, 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := study.ChainLens()
	if len(ls) != 3 || ls[0] != 2 || ls[1] != 3 || ls[2] != 4 {
		t.Errorf("ChainLens = %v", ls)
	}
}

// failingWorkload errors on a chosen window key.
type failingWorkload struct {
	*Synthetic
	failKey string
}

func (f *failingWorkload) MeasureWindow(window []string, o Options) (float64, error) {
	if core.Key(window) == f.failKey {
		return 0, errors.New("measurement rig exploded")
	}
	return f.Synthetic.MeasureWindow(window, o)
}

func TestRunStudySurfacesMeasurementErrors(t *testing.T) {
	f := &failingWorkload{Synthetic: fourKernelSynthetic(), failKey: "B|C"}
	if _, err := RunStudy(f, 10, []int{2}, Options{}); err == nil {
		t.Error("window measurement failure should surface")
	}
	f = &failingWorkload{Synthetic: fourKernelSynthetic(), failKey: "C"}
	if _, err := RunStudy(f, 10, []int{2}, Options{}); err == nil {
		t.Error("isolated measurement failure should surface")
	}
}

// noisyWorkload adds noise() to every measurement of its Synthetic, once
// per MeasureWindow and MeasureActual, to model jitter.
type noisyWorkload struct {
	*Synthetic
	noise func() float64
}

func (n *noisyWorkload) MeasureWindow(window []string, o Options) (float64, error) {
	v, err := n.Synthetic.MeasureWindow(window, o)
	return v + n.noise(), err
}

func (n *noisyWorkload) MeasureActual(trips int, o Options) (float64, error) {
	v, err := n.Synthetic.MeasureActual(trips, o)
	return v + n.noise(), err
}

func TestStudyWithNoise(t *testing.T) {
	// Small deterministic noise must not flip the qualitative outcome:
	// coupling still beats summation on an interacting workload.
	i := 0
	s := &noisyWorkload{Synthetic: fourKernelSynthetic(), noise: func() float64 {
		i++
		return float64(i%3-1) * 0.001 // -0.001, 0, +0.001 cycling
	}}
	study, err := RunStudy(s, 100, []int{4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if i == 0 {
		t.Fatal("no measurement drew noise")
	}
	if study.Couplings[4].RelErr >= study.Summation.RelErr {
		t.Errorf("noisy coupling %v vs summation %v", study.Couplings[4].RelErr, study.Summation.RelErr)
	}
}

func TestPredictionResultLabels(t *testing.T) {
	s := fourKernelSynthetic()
	study, err := RunStudy(s, 10, []int{3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if study.Summation.Label != "Summation" {
		t.Errorf("label %q", study.Summation.Label)
	}
	if study.Couplings[3].Label != "Coupling: 3 kernels" {
		t.Errorf("label %q", study.Couplings[3].Label)
	}
}

// TestStudyProvenance checks the study records how every number was
// measured: one record per isolated kernel and distinct window, plus the
// actual run, in measurement order.
func TestStudyProvenance(t *testing.T) {
	s, err := RunStudy(fourKernelSynthetic(), 10, []int{2}, Options{ActualRuns: 3})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[plan.Kind]int{}
	for _, r := range s.Provenance {
		kinds[r.Kind]++
	}
	// 6 kernels isolated, 4 length-2 windows of the ring, 1 actual.
	if kinds[plan.KindIsolated] != 6 || kinds[plan.KindWindow] != 4 || kinds[plan.KindActual] != 1 {
		t.Errorf("provenance kinds = %v", kinds)
	}
	last := s.Provenance[len(s.Provenance)-1]
	if last.Kind != plan.KindActual || last.Seconds != s.Actual || len(last.Raw) != 3 {
		t.Errorf("actual record = %+v, want median of 3 raw runs (%v)", last, s.Actual)
	}
	for _, r := range s.Provenance {
		switch r.Kind {
		case plan.KindIsolated:
			if s.Measurements.Isolated[r.Key] != r.Seconds {
				t.Errorf("isolated %s: provenance %v != measurement %v", r.Key, r.Seconds, s.Measurements.Isolated[r.Key])
			}
		case plan.KindWindow:
			if s.Measurements.Window[r.Key] != r.Seconds {
				t.Errorf("window %s: provenance %v != measurement %v", r.Key, r.Seconds, s.Measurements.Window[r.Key])
			}
		}
	}
}

// TestStudyObservability checks the harness emits spans and metrics for
// every measurement when sinks are configured: counters into
// Options.Metrics, and — into the trace the context carries — the four
// pipeline stages with one "measure.<kind>" span per world under
// "execute", recorded once each.
func TestStudyObservability(t *testing.T) {
	o := Options{Metrics: obs.NewRegistry()}
	tr := obs.NewTrace(nil)
	s, err := Engine{Workload: fourKernelSynthetic(), Opts: o}.RunCtx(obs.ContextWithTrace(t.Context(), tr), 10, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	if c, _ := snap.Counter("harness.measure.isolated.count"); c.Value != 6 {
		t.Errorf("isolated.count = %d, want 6", c.Value)
	}
	if c, _ := snap.Counter("harness.measure.window.count"); c.Value != 4 {
		t.Errorf("window.count = %d, want 4", c.Value)
	}
	if c, _ := snap.Counter("harness.measure.actual.count"); c.Value != 1 {
		t.Errorf("actual.count = %d, want 1", c.Value)
	}
	if h, _ := snap.Histogram("harness.measure.per_pass_ns"); h.Count != 10 {
		t.Errorf("per_pass_ns count = %d, want 10", h.Count)
	}
	spans := tr.Spans()
	var stages []string
	var measures []obs.Span
	for _, sp := range spans {
		if sp.Rank != -1 || sp.Track != obs.TrackStages {
			t.Errorf("harness span %+v, want process-level (rank -1) on the stages track", sp)
		}
		if sp.Parent == -1 {
			stages = append(stages, sp.Name)
			continue
		}
		if spans[sp.Parent].Name != "execute" {
			t.Errorf("span %+v sits under %q, want execute", sp, spans[sp.Parent].Name)
		}
		measures = append(measures, sp)
	}
	if got := strings.Join(stages, " "); got != "plan execute assemble analyze" {
		t.Errorf("campaign stages = %q", got)
	}
	if len(measures) != 11 { // 6 isolated + 4 windows + 1 actual
		t.Fatalf("got %d measure spans, want 11", len(measures))
	}
	if measures[0].Name != "measure.isolated" || measures[10].Name != "measure.actual" {
		t.Errorf("span names = %v ... %v", measures[0].Name, measures[10].Name)
	}
	if got := measures[10].Detail; got != s.Workload {
		t.Errorf("actual span detail = %q, want workload name %q", got, s.Workload)
	}
}
