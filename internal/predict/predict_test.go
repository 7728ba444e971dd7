package predict

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/npb"
	"repro/internal/obs"
)

// stub is a scriptable Predictor for chain tests.
type stub struct {
	name  string
	pr    Prediction
	err   error
	calls int
}

func (s *stub) Name() string { return s.name }

func (s *stub) Predict(ctx context.Context, q Query) (Prediction, error) {
	s.calls++
	return s.pr, s.err
}

// synthEngine builds a deterministic study from an explicit cost model —
// the predict package's stand-in for the real measurement pipeline.
func synthEngine(t *testing.T, base map[string]float64, delta map[string]float64, trips int, chains []int) *harness.Study {
	t.Helper()
	w := &harness.Synthetic{
		SyntheticName: "synth",
		Pre:           []string{"init"},
		Loop:          []string{"a", "b", "c"},
		Post:          []string{"fin"},
		Base:          base,
		Delta:         delta,
	}
	st, err := harness.Engine{Workload: w}.Run(trips, chains)
	if err != nil {
		t.Fatalf("synthetic study: %v", err)
	}
	return st
}

func flatBase() map[string]float64 {
	return map[string]float64{"init": 0.5, "a": 1, "b": 2, "c": 3, "fin": 0.25}
}

// The chain must skip an unanswerable backend, answer from the next one,
// stamp the answering backend's name, and count the hit/pass.
func TestChainFallsThroughUnanswerable(t *testing.T) {
	st := synthEngine(t, flatBase(), nil, 4, []int{2})
	miss := &stub{name: "cached", err: Unanswerable(harness.ErrCacheMiss)}
	hit := &stub{name: "analytic", pr: FromStudy(st, ProvAnalytic)}
	reg := obs.NewRegistry()
	ch := NewChain(reg, miss, hit)

	pr, err := ch.Predict(context.Background(), Query{})
	if err != nil {
		t.Fatalf("chain: %v", err)
	}
	if pr.Backend != "analytic" || pr.Provenance != ProvAnalytic {
		t.Fatalf("backend %q provenance %q, want analytic/analytic", pr.Backend, pr.Provenance)
	}
	if miss.calls != 1 || hit.calls != 1 {
		t.Fatalf("calls = %d, %d, want 1, 1", miss.calls, hit.calls)
	}
	if v := reg.Counter("predict.backend.cached.pass").Value(); v != 1 {
		t.Fatalf("cached.pass = %d, want 1", v)
	}
	if v := reg.Counter("predict.backend.analytic.hit").Value(); v != 1 {
		t.Fatalf("analytic.hit = %d, want 1", v)
	}
}

// A terminal (non-unanswerable) error must abort the chain without trying
// later backends: a malformed query does not get a second opinion.
func TestChainTerminalErrorAborts(t *testing.T) {
	boom := errors.New("bad query")
	first := &stub{name: "cached", err: boom}
	second := &stub{name: "measured"}
	ch := NewChain(nil, first, second)

	_, err := ch.Predict(context.Background(), Query{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the terminal error", err)
	}
	if second.calls != 0 {
		t.Fatal("chain tried a later backend after a terminal error")
	}
}

// When every backend refuses, the chain's error must stay unanswerable AND
// keep each refusal's cause inspectable — the serving layer branches on
// harness.ErrCacheMiss to map a miss to 404.
func TestChainAllRefuseKeepsCauses(t *testing.T) {
	cached := &Cached{Run: func(ctx context.Context, q Query) (*harness.Study, error) {
		return nil, fmt.Errorf("harness: %w for BT", harness.ErrCacheMiss)
	}}
	ch := NewChain(nil, cached)
	_, err := ch.Predict(context.Background(), Query{})
	if !errors.Is(err, ErrUnanswerable) {
		t.Fatalf("err = %v, want ErrUnanswerable", err)
	}
	if !errors.Is(err, harness.ErrCacheMiss) {
		t.Fatalf("err = %v, want the cache-miss cause preserved", err)
	}
}

// Peek asks the first backend only, and a peeked answer is counted and
// named as Predict's would be. A memo miss, a first backend that cannot
// peek and an empty chain all leave the query to Predict; a peekable
// backend behind another is never asked.
func TestChainPeeksFirstBackendOnly(t *testing.T) {
	st := synthEngine(t, flatBase(), nil, 4, []int{2})
	held := false
	cached := &Cached{
		Run: func(ctx context.Context, q Query) (*harness.Study, error) { return st, nil },
		Memo: func(ctx context.Context, q Query) (*harness.Study, bool) {
			if !held {
				return nil, false
			}
			return st, true
		},
	}
	reg := obs.NewRegistry()
	ch := NewChain(reg, cached, &stub{name: "measured"})
	if _, ok := ch.Peek(context.Background(), Query{}); ok {
		t.Fatal("Peek answered from an empty memo")
	}
	held = true
	pr, ok := ch.Peek(context.Background(), Query{})
	if !ok || pr.Backend != "cached" || pr.Provenance != ProvCached || pr.Study != st {
		t.Fatalf("Peek = %+v, %v; want the memoised study from cached", pr, ok)
	}
	want, err := ch.Predict(context.Background(), Query{})
	if err != nil || want.Value != pr.Value || want.Band != pr.Band || want.Backend != pr.Backend {
		t.Errorf("Predict = %+v, %v; Peek gave %+v", want, err, pr)
	}
	if v := reg.Counter("predict.backend.cached.hit").Value(); v != 2 {
		t.Errorf("cached.hit = %d after one peek and one predict, want 2", v)
	}

	behind := NewChain(nil, &stub{name: "measured"}, cached)
	if _, ok := behind.Peek(context.Background(), Query{}); ok {
		t.Error("Peek asked a backend behind one that cannot peek")
	}
	if _, ok := NewChain(nil).Peek(context.Background(), Query{}); ok {
		t.Error("an empty chain peeked an answer")
	}
	if _, ok := (&Cached{Run: cached.Run}).Peek(context.Background(), Query{}); ok {
		t.Error("a cached backend without a memo peeked an answer")
	}
}

func TestEmptyChainRefuses(t *testing.T) {
	_, err := NewChain(nil).Predict(context.Background(), Query{})
	if !errors.Is(err, ErrUnanswerable) {
		t.Fatalf("err = %v, want ErrUnanswerable", err)
	}
}

// FromStudy must answer with the longest chain's prediction and a band
// spanning every predictor the study produced.
func TestFromStudyValueAndBand(t *testing.T) {
	// A destructive pair delta separates the predictors: summation
	// ignores it, longer chains see more of it.
	delta := map[string]float64{core.Key([]string{"a", "b"}): 0.5}
	st := synthEngine(t, flatBase(), delta, 4, []int{2, 3})

	pr := FromStudy(st, ProvCached)
	if pr.Value != st.Couplings[3].Predicted {
		t.Fatalf("value = %g, want the L=3 prediction %g", pr.Value, st.Couplings[3].Predicted)
	}
	for _, v := range []float64{st.Summation.Predicted, st.Couplings[2].Predicted, st.Couplings[3].Predicted} {
		if !pr.Band.Contains(v) {
			t.Fatalf("band [%g, %g] must contain predictor value %g", pr.Band.Lo, pr.Band.Hi, v)
		}
	}
	if pr.Provenance != ProvCached || pr.Study != st {
		t.Fatalf("provenance %q study %p, want cached/%p", pr.Provenance, pr.Study, st)
	}
}

// The cached backend must translate a cache miss into a refusal and pass
// any other failure through as terminal.
func TestCachedBackendMissRefuses(t *testing.T) {
	c := &Cached{Run: func(ctx context.Context, q Query) (*harness.Study, error) {
		return nil, fmt.Errorf("wrapped: %w", harness.ErrCacheMiss)
	}}
	if _, err := c.Predict(context.Background(), Query{}); !errors.Is(err, ErrUnanswerable) {
		t.Fatalf("miss err = %v, want unanswerable", err)
	}
	boom := errors.New("disk on fire")
	c.Run = func(ctx context.Context, q Query) (*harness.Study, error) { return nil, boom }
	if _, err := c.Predict(context.Background(), Query{}); errors.Is(err, ErrUnanswerable) || !errors.Is(err, boom) {
		t.Fatalf("terminal err = %v, want the original failure, not a refusal", err)
	}
}

// synthQuery is the interpolation tests' query template; only Grid varies
// across the lattice.
func synthQuery(grid int) Query {
	return Query{Bench: "BT", Class: "T", Procs: 4, Chains: []int{2}, Trips: 5, Blocks: 2, Passes: 1, Grid: grid}
}

// synthStudyFn resolves a query to a synthetic study whose kernel costs
// scale with total cells (the law isolatedTimes fits) and whose pair
// coupling is constant across sizes — a one-plateau lattice.
func synthStudyFn(t *testing.T) StudyFn {
	return func(ctx context.Context, q Query) (*harness.Study, error) {
		cells := float64(q.Grid * q.Grid * q.Grid)
		base := map[string]float64{
			"init": 1e-6 * cells,
			"a":    2e-6 * cells,
			"b":    3e-6 * cells,
			"c":    4e-6 * cells,
			"fin":  0.5e-6 * cells,
		}
		// A destructive interaction proportional to the base costs keeps
		// C constant across grid sizes: one plateau, zero transitions.
		delta := map[string]float64{
			core.Key([]string{"a", "b"}): 0.5e-6 * cells,
		}
		return synthEngine(t, base, delta, q.Trips, q.Chains), nil
	}
}

func synthProblem(q Query) (npb.Problem, error) {
	return npb.TinyProblem(q.Grid, q.Trips), nil
}

// The interpolated backend, seeded with a lattice of synthetic studies,
// must predict a held-out size within its own band — and that band must
// contain the cost model's true value.
func TestInterpolatedSyntheticLattice(t *testing.T) {
	run := synthStudyFn(t)
	ip := &Interpolated{
		Source:  run,
		Lattice: []Query{synthQuery(6), synthQuery(8), synthQuery(12)},
		Problem: synthProblem,
	}
	target := synthQuery(10)
	pr, err := ip.Predict(context.Background(), target)
	if err != nil {
		t.Fatalf("interpolate: %v", err)
	}
	if pr.Provenance != ProvInterpolated {
		t.Fatalf("provenance = %q, want interpolated", pr.Provenance)
	}
	if pr.Study == nil || pr.Study.Actual != 0 {
		t.Fatalf("synthesized study must exist with Actual == 0, got %+v", pr.Study)
	}
	if len(pr.Windows) == 0 {
		t.Fatal("interpolated prediction must carry per-window bands")
	}

	// Ground truth from the same cost model, via a real measured study.
	truth, err := run(context.Background(), target)
	if err != nil {
		t.Fatalf("truth study: %v", err)
	}
	if !pr.Band.Contains(truth.Actual) {
		t.Fatalf("band [%g, %g] must contain the held-out measured value %g (predicted %g)",
			pr.Band.Lo, pr.Band.Hi, truth.Actual, pr.Value)
	}
	if pr.Band.Lo >= pr.Band.Hi {
		t.Fatalf("band [%g, %g] must have positive width", pr.Band.Lo, pr.Band.Hi)
	}
	checkComposed(t, pr.Study, pr.Windows)

	// The constant-coupling lattice must interpolate to one plateau: the
	// predicted window C matches the lattice's measured C.
	wc, err := truth.Measurements.CouplingOf([]string{"a", "b"})
	if err != nil {
		t.Fatalf("truth coupling: %v", err)
	}
	for _, wb := range pr.Windows {
		if core.Key(wb.Window) == core.Key([]string{"a", "b"}) {
			const eps = 1e-12 // plateau edges are exact lattice values; truth differs by rounding
			if wc.C < wb.Lo-eps || wc.C > wb.Hi+eps {
				t.Fatalf("window band [%g, %g] must contain the true C %g", wb.Lo, wb.Hi, wc.C)
			}
		}
	}
}

// One lattice point is not enough to tell a plateau from a transition:
// the backend must refuse, not guess.
func TestInterpolatedRefusesThinLattice(t *testing.T) {
	ip := &Interpolated{
		Source:  synthStudyFn(t),
		Lattice: []Query{synthQuery(6)},
		Problem: synthProblem,
	}
	_, err := ip.Predict(context.Background(), synthQuery(10))
	if !errors.Is(err, ErrUnanswerable) {
		t.Fatalf("thin-lattice err = %v, want unanswerable", err)
	}

	// The target itself sitting in the lattice must not count as a seed.
	ip.Lattice = []Query{synthQuery(6), synthQuery(10)}
	if _, err := ip.Predict(context.Background(), synthQuery(10)); !errors.Is(err, ErrUnanswerable) {
		t.Fatalf("self-seeded err = %v, want unanswerable", err)
	}

	// Two points of one size cannot tell a fixed cost from a per-cell
	// one: a singular fit is a refusal too.
	twin := synthQuery(6)
	twin.Blocks++
	ip.Lattice = []Query{synthQuery(6), twin}
	if _, err := ip.Predict(context.Background(), synthQuery(10)); !errors.Is(err, ErrUnanswerable) || !strings.Contains(err.Error(), "singular design") {
		t.Fatalf("one-size lattice err = %v, want an unanswerable singular design", err)
	}
}

// Times generated exactly from a fixed cost plus a per-cell one must come
// back from the fit exactly, at any spread of sizes.
func TestFitLineRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		c0 := 0.001 + rng.Float64()
		c1 := 1e-8 + 1e-6*rng.Float64()
		var xs, ys []float64
		for _, n := range []int{8, 12, 16, 24, 32} {
			x := float64(n * n * n)
			xs, ys = append(xs, x), append(ys, c0+c1*x)
		}
		coef, err := fitLine(xs, ys)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(coef[0]-c0) > 1e-6*(1+c0) || math.Abs(coef[1]-c1) > 1e-9*(1+c1) {
			t.Fatalf("trial %d: fit (%g, %g), want (%g, %g)", trial, coef[0], coef[1], c0, c1)
		}
	}
	if _, err := fitLine([]float64{512, 512}, []float64{1, 1}); err == nil {
		t.Fatal("two observations at one size must be a singular design")
	}
}

// The analytic backend must answer a never-measured query from geometry
// alone, with analytic provenance, window bands, and a band containing
// its own value.
func TestAnalyticPredictsFromGeometry(t *testing.T) {
	an := &Analytic{
		Problem: synthProblem,
		App: func(q Query) (core.App, error) {
			return core.App{Name: q.Workload(), Pre: []string{"init"}, Loop: core.Ring{"a", "b", "c"}, Post: []string{"fin"}, Trips: q.Trips}, nil
		},
	}
	q := synthQuery(10)
	pr, err := an.Predict(context.Background(), q)
	if err != nil {
		t.Fatalf("analytic: %v", err)
	}
	if pr.Provenance != ProvAnalytic {
		t.Fatalf("provenance = %q, want analytic", pr.Provenance)
	}
	if pr.Value <= 0 {
		t.Fatalf("value = %g, want > 0", pr.Value)
	}
	if !pr.Band.Contains(pr.Value) {
		t.Fatalf("band [%g, %g] must contain the value %g", pr.Band.Lo, pr.Band.Hi, pr.Value)
	}
	if len(pr.Windows) != 3 {
		t.Fatalf("windows = %d, want 3 pair windows", len(pr.Windows))
	}
	for _, wb := range pr.Windows {
		if wb.C < wb.Lo || wb.C > wb.Hi {
			t.Fatalf("window %v: C %g outside its own band [%g, %g]", wb.Window, wb.C, wb.Lo, wb.Hi)
		}
	}
	if pr.Study == nil || pr.Study.Summation.Predicted <= 0 {
		t.Fatal("analytic prediction must synthesize a full study")
	}
	checkComposed(t, pr.Study, pr.Windows)
}

// Query.Key must separate every axis the cache separates.
func TestQueryKeyAxes(t *testing.T) {
	base := synthQuery(8)
	seen := map[string]bool{base.Key(): true}
	for _, v := range []Query{
		{Bench: "LU", Class: "T", Procs: 4, Chains: []int{2}, Trips: 5, Blocks: 2, Passes: 1, Grid: 8},
		{Bench: "BT", Class: "S", Procs: 4, Chains: []int{2}, Trips: 5, Blocks: 2, Passes: 1, Grid: 8},
		{Bench: "BT", Class: "T", Procs: 9, Chains: []int{2}, Trips: 5, Blocks: 2, Passes: 1, Grid: 8},
		{Bench: "BT", Class: "T", Procs: 4, Chains: []int{2, 3}, Trips: 5, Blocks: 2, Passes: 1, Grid: 8},
		{Bench: "BT", Class: "T", Procs: 4, Chains: []int{2}, Trips: 9, Blocks: 2, Passes: 1, Grid: 8},
		{Bench: "BT", Class: "T", Procs: 4, Chains: []int{2}, Trips: 5, Blocks: 3, Passes: 1, Grid: 8},
		{Bench: "BT", Class: "T", Procs: 4, Chains: []int{2}, Trips: 5, Blocks: 2, Passes: 2, Grid: 8},
		{Bench: "BT", Class: "T", Procs: 4, Chains: []int{2}, Trips: 5, Blocks: 2, Passes: 1, Grid: 10},
	} {
		k := v.Key()
		if seen[k] {
			t.Fatalf("key collision: %q", k)
		}
		seen[k] = true
	}
}
