// Package predict puts one interface in front of every way the system
// can answer a coupling-prediction query: measuring it (the harness
// engine), re-analyzing a warmed cache, interpolating over a lattice of
// cached studies with the paper's §4.1 finite-transition step model, or
// computing it analytically from cache-capacity overlap with no
// measurements at all. Each answer carries a confidence band and typed
// provenance, so callers can ask for "the cheapest backend that can
// answer" (Chain) and still know exactly what kind of answer they got.
//
// The dependency direction is predict ← tables ← serve: this package
// never imports the experiment index, so backends are parameterized by
// injected study/problem/app builders (internal/tables provides the
// canonical ones, keeping cache keys interchangeable across binaries).
package predict

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/harness"
	"repro/internal/npb"
	"repro/internal/obs"
)

// Provenance says how a prediction was produced.
type Provenance string

// The four provenance classes, cheapest-to-produce last.
const (
	ProvMeasured     Provenance = "measured"
	ProvCached       Provenance = "cached"
	ProvInterpolated Provenance = "interpolated"
	ProvAnalytic     Provenance = "analytic"
)

// Query identifies one prediction request. Its fields mirror cmd/couple's
// flags (and serve.Query): the cache, the lattice and the analytic model
// are all keyed on exactly these parameters.
type Query struct {
	// Bench is the benchmark name: BT, SP, LU or FT.
	Bench string
	// Class is the NPB problem class.
	Class npb.Class
	// Procs is the rank count.
	Procs int
	// Chains holds the requested coupling chain lengths, ascending.
	Chains []int
	// Trips is the loop trip count.
	Trips int
	// Blocks and Passes are the measurement repetition parameters.
	Blocks int
	// Passes is the window passes per timed block.
	Passes int
	// Grid is the n³ grid override; zero means the class problem size.
	Grid int
}

// Key is the query's canonical identity, used to hold lattice points
// apart from the target they interpolate.
func (q Query) Key() string {
	return string(q.AppendKey(make([]byte, 0, 64)))
}

// AppendKey appends Key's bytes to b: "BENCH.CLASS.pPROCS gGRID tTRIPS
// bBLOCKS xPASSES cCHAINS", chains comma-separated. serve.Query's key is
// this one plus its backend pin.
//
//kcvet:hotpath renders the key of every served query
func (q *Query) AppendKey(b []byte) []byte {
	b = append(b, q.Bench...)
	b = append(b, '.')
	b = append(b, string(q.Class)...)
	b = append(b, ".p"...)
	b = strconv.AppendInt(b, int64(q.Procs), 10)
	b = append(b, " g"...)
	b = strconv.AppendInt(b, int64(q.Grid), 10)
	b = append(b, " t"...)
	b = strconv.AppendInt(b, int64(q.Trips), 10)
	b = append(b, " b"...)
	b = strconv.AppendInt(b, int64(q.Blocks), 10)
	b = append(b, " x"...)
	b = strconv.AppendInt(b, int64(q.Passes), 10)
	b = append(b, " c"...)
	for i, c := range q.Chains {
		if i > 0 {
			//kcvet:ignore hotalloc appends fill the caller's buffer; a key longer than its capacity needs a pathological chain list
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return b
}

// Workload returns the canonical workload name for the query,
// "BENCH.CLASS.PROCS" — the same naming tables.NewWorkload uses.
func (q Query) Workload() string {
	return q.Bench + "." + string(q.Class) + "." + strconv.Itoa(q.Procs)
}

// Band is a prediction's confidence interval in the predicted unit.
type Band struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// WindowBand is one window's predicted coupling value with its band —
// the per-window detail behind an interpolated or analytic prediction,
// and the unit the measured-vs-analytic disagreement column compares.
type WindowBand struct {
	// Window holds the kernel names in chain order.
	Window []string `json:"window"`
	// C is the predicted coupling value.
	C float64 `json:"coupling"`
	// Lo and Hi bound the prediction.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Prediction is one backend's answer: the predicted application time, a
// confidence band around it, and provenance saying how it was produced.
// Study carries the full study shape (measurements, coefficients, window
// couplings) so existing rendering layers work on every backend's answer;
// interpolated and analytic backends synthesize it with Actual == 0.
type Prediction struct {
	// Value is the predicted application execution time in seconds, from
	// the longest requested chain length.
	Value float64
	// Band bounds the prediction: measurement spread for measured/cached
	// answers, model residuals plus plateau spread for interpolated ones,
	// scenario spread for analytic ones.
	Band Band
	// Provenance types the answer.
	Provenance Provenance
	// Backend names the chain entry that answered (set by Chain).
	Backend string
	// Study is the full study behind the answer.
	Study *harness.Study
	// Windows holds per-window coupling bands for interpolated and
	// analytic answers; nil for measured and cached ones.
	Windows []WindowBand
}

// Predictor is one way of answering a prediction query.
type Predictor interface {
	// Name identifies the backend ("measured", "cached", ...).
	Name() string
	// Predict answers the query or fails. A backend that cannot answer
	// this query at all (cold cache, no lattice coverage) returns an
	// error matching ErrUnanswerable so a Chain can fall through to the
	// next backend; any other error is terminal.
	Predict(ctx context.Context, q Query) (Prediction, error)
}

// Peeker is a backend that can sometimes answer without I/O, measurement
// or waiting: a memoised study, arithmetic on the query. Peek reports
// false when it cannot answer that way, and the caller then asks Predict,
// whose answer to the same query is the one Peek gives when it can.
type Peeker interface {
	Peek(ctx context.Context, q Query) (Prediction, bool)
}

// ErrUnanswerable marks a backend's "not my query" refusal: the chain
// tries the next backend instead of failing. Wrap a concrete cause with
// Unanswerable so the cause stays inspectable (a cold-cache refusal still
// matches harness.ErrCacheMiss).
var ErrUnanswerable = errors.New("predict: backend cannot answer this query")

type unanswerableError struct{ err error }

func (e *unanswerableError) Error() string { return e.err.Error() }

func (e *unanswerableError) Unwrap() []error { return []error{ErrUnanswerable, e.err} }

// Unanswerable wraps err so it matches both ErrUnanswerable and err's own
// chain.
func Unanswerable(err error) error {
	if err == nil {
		err = ErrUnanswerable
	}
	return &unanswerableError{err: err}
}

// chainEntry is one backend with its observability pre-resolved: counter
// handles and span names are built once at construction so the per-query
// path does not concatenate strings (the warm cached path is the serving
// benchmark's measured path).
type chainEntry struct {
	p       Predictor
	span    string
	hit     *obs.Counter
	pass    *obs.Counter
	errored *obs.Counter
	// peek is p as a Peeker, nil when p cannot peek; peekSpan names the
	// stage a peek is: a memo read for the cached backend, the backend
	// itself for any other.
	peek     Peeker
	peekSpan string
}

// Chain tries backends in order and answers with the first one that can:
// the "cheapest backend that meets the confidence requirement" selector.
// A backend refusing with ErrUnanswerable passes the query on; any other
// error is terminal (a malformed query does not get a second opinion).
// The answering backend is recorded on the prediction, as a trace
// annotation, and in per-backend hit/pass/error counters.
type Chain struct {
	entries []chainEntry
}

// NewChain builds a chain over the backends in order. reg may be nil —
// counters are then dropped.
func NewChain(reg *obs.Registry, backends ...Predictor) *Chain {
	c := &Chain{entries: make([]chainEntry, len(backends))}
	for i, b := range backends {
		e := chainEntry{p: b, span: "backend." + b.Name()}
		if pk, ok := b.(Peeker); ok {
			e.peek, e.peekSpan = pk, e.span
			if _, cached := b.(*Cached); cached {
				e.peekSpan = "cache.memo"
			}
		}
		if reg != nil {
			e.hit = reg.Counter("predict.backend." + b.Name() + ".hit")
			e.pass = reg.Counter("predict.backend." + b.Name() + ".pass")
			e.errored = reg.Counter("predict.backend." + b.Name() + ".error")
		}
		c.entries[i] = e
	}
	return c
}

// Backends returns the chained backend names in order.
func (c *Chain) Backends() []string {
	names := make([]string, len(c.entries))
	for i, e := range c.entries {
		names[i] = e.p.Name()
	}
	return names
}

// Name implements Predictor, so chains nest.
func (c *Chain) Name() string { return "chain" }

// Peek implements Peeker by asking the chain's first backend only: a
// later backend's answer is Predict's only once every backend before it
// has refused, and that is not known without asking them. A peeked
// answer is counted and annotated as Predict's would be, inside one span
// ("cache.memo" for the cached backend, detail "hit" or "miss").
//
//kcvet:hotpath kcserved's warm /predict answers here, ahead of its flight
func (c *Chain) Peek(ctx context.Context, q Query) (Prediction, bool) {
	if len(c.entries) == 0 || c.entries[0].peek == nil {
		return Prediction{}, false
	}
	e := &c.entries[0]
	sp, pctx := obs.StartSpan(ctx, e.peekSpan, "hit")
	defer sp.End()
	pr, ok := e.peek.Peek(pctx, q)
	if !ok {
		sp.SetDetail("miss")
		return Prediction{}, false
	}
	inc(e.hit)
	pr.Backend = e.p.Name()
	obs.TraceFrom(ctx).Annotate("backend", e.p.Name())
	return pr, true
}

// Predict implements Predictor.
//
//kcvet:hotpath the cached entry of this loop is kcserved's warm /predict path
func (c *Chain) Predict(ctx context.Context, q Query) (Prediction, error) {
	var errs []error
	for _, e := range c.entries {
		//kcvet:ignore hotalloc span creation is nil-cheap when tracing is off; a traced request pays for its own observability
		sp, bctx := obs.StartSpan(ctx, e.span, "")
		pr, err := e.p.Predict(bctx, q)
		if err == nil {
			sp.End()
			inc(e.hit)
			pr.Backend = e.p.Name()
			//kcvet:ignore hotalloc one annotation per answered query, only when a trace is attached
			obs.TraceFrom(ctx).Annotate("backend", e.p.Name())
			return pr, nil
		}
		sp.SetDetail("no answer")
		sp.End()
		if !errors.Is(err, ErrUnanswerable) {
			inc(e.errored)
			return Prediction{}, err
		}
		inc(e.pass)
		//kcvet:ignore hotalloc the refusal path leaves the warm loop; collecting causes costs nothing on a hit
		errs = append(errs, fmt.Errorf("%s: %w", e.p.Name(), err))
	}
	if len(errs) == 0 {
		return Prediction{}, Unanswerable(errors.New("predict: empty backend chain"))
	}
	// Still unanswerable as a whole, with every backend's refusal joined
	// so callers can branch on the causes (e.g. a serving layer mapping a
	// cache miss to 404).
	return Prediction{}, Unanswerable(errors.Join(errs...))
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// FromStudy summarizes a finished study as a Prediction: the value is the
// longest requested chain's coupling prediction (the paper's most
// informed predictor), and the band spans every predictor the study
// produced (summation and all chain lengths) — the model-choice spread.
func FromStudy(st *harness.Study, prov Provenance) Prediction {
	v := st.Summation.Predicted
	lo, hi := v, v
	for _, l := range st.ChainLens() {
		p := st.Couplings[l].Predicted
		v = p
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	return Prediction{Value: v, Band: Band{Lo: lo, Hi: hi}, Provenance: prov, Study: st}
}

// StudyFn resolves a query to a full study — the injection point that
// lets the measured and cached backends wrap whatever engine construction
// the caller uses (tables' canonical builders, a serving layer's guarded
// ones, a test's synthetic ones) without this package importing them.
type StudyFn func(ctx context.Context, q Query) (*harness.Study, error)

// Measured answers by running the study — worlds and all — through the
// injected engine path. It can always answer (expensively); it never
// refuses.
type Measured struct {
	Run StudyFn
}

// Name implements Predictor.
func (m *Measured) Name() string { return string(ProvMeasured) }

// Predict implements Predictor.
func (m *Measured) Predict(ctx context.Context, q Query) (Prediction, error) {
	st, err := m.Run(ctx, q)
	if err != nil {
		return Prediction{}, err
	}
	return FromStudy(st, ProvMeasured), nil
}

// MemoFn returns the study a StudyFn would return for a query if it is
// already memoised, without I/O or waiting, and false if it is not.
type MemoFn func(ctx context.Context, q Query) (*harness.Study, bool)

// Cached answers by pure re-analysis of a warmed measurement cache; a
// cache miss is a refusal (ErrUnanswerable wrapping the miss), letting a
// chain fall through to interpolation, the analytic model, or on-demand
// measurement.
type Cached struct {
	Run StudyFn
	// Memo, when non-nil, is Run's memo: Peek answers from it.
	Memo MemoFn
}

// Name implements Predictor.
func (c *Cached) Name() string { return string(ProvCached) }

// Predict implements Predictor.
func (c *Cached) Predict(ctx context.Context, q Query) (Prediction, error) {
	st, err := c.Run(ctx, q)
	if err != nil {
		if errors.Is(err, harness.ErrCacheMiss) {
			return Prediction{}, Unanswerable(err)
		}
		return Prediction{}, err
	}
	return FromStudy(st, ProvCached), nil
}

// Peek implements Peeker: it answers when Memo holds the query's study.
func (c *Cached) Peek(ctx context.Context, q Query) (Prediction, bool) {
	if c.Memo == nil {
		return Prediction{}, false
	}
	st, ok := c.Memo(ctx, q)
	if !ok {
		return Prediction{}, false
	}
	return FromStudy(st, ProvCached), true
}
