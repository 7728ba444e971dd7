package tables

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// The ablations and extensions of DESIGN.md §5, run as `paper -table
// <id>`. ablation-chain and ext-ft are one study rendered their own way;
// the others put a base study (or sweep) beside one varied choice.

// single measures the experiment's one configuration: its first
// processor count.
func (e Experiment) single(s Scale) (*harness.Study, error) {
	st, err := e.studyFor(s, e.Procs[0], e.tripsAt(s))
	if err != nil {
		return nil, fmt.Errorf("tables: table %s: %w", e.ID, err)
	}
	return st, nil
}

// rendered is the result of a variant: its table and the studies behind
// it, base first.
func (e Experiment) rendered(s Scale, tb *stats.Table, studies ...*harness.Study) *Result {
	res := &Result{Exp: e, TripsUsed: e.tripsAt(s), Text: tb.String()}
	for _, st := range studies {
		res.Studies = append(res.Studies, ProcStudy{Procs: e.Procs[0], Study: st})
	}
	return res
}

// title names the configuration an ablation holds fixed.
func (e Experiment) title() string {
	return fmt.Sprintf("%s (%s class %s, %d procs)", e.Caption, e.Bench, e.Class, e.Procs[0])
}

// chainAblation sweeps the window length L: the paper's observation that
// the best L grows with interaction range shows up as error decaying
// toward the full ring.
func chainAblation(e Experiment, s Scale) (*Result, error) {
	st, err := e.single(s)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(e.title(), "Predictor", "Relative Error")
	tb.AddRow("Summation", stats.Percent(st.Summation.RelErr))
	for _, L := range st.ChainLens() {
		p := st.Couplings[L]
		tb.AddRow(p.Label, stats.Percent(p.RelErr))
	}
	return e.rendered(s, tb, st), nil
}

// weightingAblation compares the paper's window-time-weighted coefficient
// averaging against unweighted averaging, recomputed from the same
// measurements.
func weightingAblation(e Experiment, s Scale) (*Result, error) {
	st, err := e.single(s)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(e.title(), "Chain Length", "Weighted (paper)", "Unweighted")
	for _, L := range st.ChainLens() {
		pred, err := st.App.CouplingPrediction(st.Measurements, L, core.CoefficientOptions{Unweighted: true})
		if err != nil {
			return nil, err
		}
		tb.AddRow(fmt.Sprint(L), stats.Percent(st.Couplings[L].RelErr),
			stats.Percent(stats.RelativeError(pred.Total, st.Actual)))
	}
	return e.rendered(s, tb, st), nil
}

// netAblation attaches the IBM SP interconnect cost model to LU, the
// paper's small-message-sensitive benchmark: charging per-message latency
// should lengthen its sweeps.
func netAblation(e Experiment, s Scale) (*Result, error) {
	s.Net = nil
	base, err := e.single(s)
	if err != nil {
		return nil, err
	}
	m := mpi.IBMSPModel()
	s.Net = &m
	net, err := e.single(s)
	if err != nil {
		return nil, err
	}
	L := e.ChainLens[0]
	tb := stats.NewTable(e.title(), "Configuration", "Actual", "Summation err", fmt.Sprintf("Coupling-%d err", L))
	tb.AddRow(base.Workload, stats.Seconds(base.Actual), stats.Percent(base.Summation.RelErr), stats.Percent(base.Couplings[L].RelErr))
	tb.AddRow(net.Workload+"+net", stats.Seconds(net.Actual), stats.Percent(net.Summation.RelErr), stats.Percent(net.Couplings[L].RelErr))
	return e.rendered(s, tb, base, net), nil
}

// trimAblation compares the default median-like trimmed aggregation of
// timed blocks against the raw mean, which a shared host's upper-tail
// spikes pull up.
func trimAblation(e Experiment, s Scale) (*Result, error) {
	trimmed, err := e.single(s)
	if err != nil {
		return nil, err
	}
	rawMean := e
	rawMean.trim = -1
	raw, err := rawMean.single(s)
	if err != nil {
		return nil, err
	}
	L := e.ChainLens[0]
	tb := stats.NewTable(e.title(), "Aggregation", "Summation err", fmt.Sprintf("Coupling-%d err", L))
	tb.AddRow("trimmed (default)", stats.Percent(trimmed.Summation.RelErr), stats.Percent(trimmed.Couplings[L].RelErr))
	tb.AddRow("raw mean", stats.Percent(raw.Summation.RelErr), stats.Percent(raw.Couplings[L].RelErr))
	return e.rendered(s, tb, trimmed, raw), nil
}

// ftExtension runs the coupling study on FT (the FFT code of the authors'
// prior work [TG01]): one large all-to-all per iteration instead of LU's
// many small messages.
func ftExtension(e Experiment, s Scale) (*Result, error) {
	prob, err := PredictProblem(e.query(s, e.Procs[0]))
	if err != nil {
		return nil, err
	}
	st, err := e.single(s)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(fmt.Sprintf("%s (%d² FFT, %d procs, trips=%d)", e.Caption, prob.N1, e.Procs[0], e.tripsAt(s)),
		"Predictor", "Seconds", "Relative Error")
	tb.AddRow("Actual", stats.Seconds(st.Actual), "-")
	tb.AddRow("Summation", stats.Seconds(st.Summation.Predicted), stats.Percent(st.Summation.RelErr))
	for _, L := range st.ChainLens() {
		p := st.Couplings[L]
		tb.AddRow(p.Label, stats.Seconds(p.Predicted), stats.Percent(p.RelErr))
	}
	return e.rendered(s, tb, st), nil
}

// sharedExtension contrasts the Section 4.1 sweep's disjoint pair
// (capacity conflict: destructive as the working set crosses cache/2)
// with a producer/consumer pair sharing one array, isolating cache
// capacity as the mechanism behind the transitions.
func sharedExtension(e Experiment, s Scale) (*Result, error) {
	disjoint, err := memmodel.Sweep(e.sweepAxis(s))
	if err != nil {
		return nil, err
	}
	shared, err := memmodel.SweepShared(e.sweepAxis(s))
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable(e.Caption, "Working Set / Kernel", "C (disjoint)", "C (shared)")
	for i, p := range disjoint {
		tb.AddRow(fmtBytes(p.Bytes), fmt.Sprintf("%.3f", p.C), fmt.Sprintf("%.3f", shared[i].C))
	}
	return &Result{Exp: e, Sweep: disjoint, Text: tb.String()}, nil
}
