package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memmodel"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/lu"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/tables"
)

// luPerTrial is how many LU studies a trial holds: LU.W is about a
// seventh of BT.W's wall time, so three of them keep its sample count
// and its share of the trial from being an afterthought.
const luPerTrial = 2

// campaignQueries are the analyst's two studies: BT class W is compute-
// and memory-bound (npb kernels dominate), LU class W is message-bound
// (many small p2p messages through mpi). Smoke scale swaps class W for
// an 8-cubed grid.
func campaignQueries(smoke bool) (btQ, luQ predict.Query) {
	btQ = predict.Query{Bench: "BT", Class: npb.ClassW, Procs: 4, Chains: []int{3, 5}, Trips: tables.DefaultTrips(npb.ClassW), Blocks: 3, Passes: 1}
	luQ = predict.Query{Bench: "LU", Class: npb.ClassW, Procs: 4, Chains: []int{3, 4}, Trips: tables.DefaultTrips(npb.ClassW), Blocks: 3, Passes: 1}
	if smoke {
		for _, q := range []*predict.Query{&btQ, &luQ} {
			q.Class, q.Grid, q.Trips = npb.ClassS, 8, 2
		}
	}
	return btQ, luQ
}

// quiesce is the protocol before every timed study: collect, and hand
// freed pages back, so one study's garbage is not the next one's GC
// pause (the root bench_test.go does the same between tables).
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
}

// coldStudy runs one study on a fresh cache through the path couple and
// the measured backend share, and checks what must hold of any study.
func coldStudy(q predict.Query, parallel int, chk *checker) (*harness.Study, float64) {
	quiesce()
	run := tables.BackendConfig{Cache: plan.NewCache(), Parallel: parallel}.StudyRunner()
	t0 := time.Now()
	st, err := run(context.Background(), q)
	wall := time.Since(t0).Seconds()
	checkStudy(chk, q, st, err)
	return st, wall
}

func checkStudy(chk *checker, q predict.Query, st *harness.Study, err error) {
	if err != nil {
		chk.op(false, "study %s: %v", q.Workload(), err)
		return
	}
	ok := positive(st.Actual) && positive(st.Summation.Predicted)
	for _, L := range q.Chains {
		ok = ok && positive(st.Couplings[L].Predicted)
	}
	switch {
	case !ok:
		chk.op(false, "study %s: a predictor is not a finite positive time", q.Workload())
	case !st.Health.Clean():
		chk.op(false, "study %s: unclean health %+v", q.Workload(), st.Health)
	case st.Exec.Executed != st.Exec.Planned || st.Exec.CacheHits != 0:
		chk.op(false, "study %s on a fresh cache: planned %d executed %d cache hits %d", q.Workload(), st.Exec.Planned, st.Exec.Executed, st.Exec.CacheHits)
	default:
		chk.op(true, "")
	}
}

// checkSynthetic runs a seeded clock-free study whose predictor errors
// have closed forms: summation misses exactly the ring's interaction
// terms, and the full-ring coupling predictor is exact. A harness or
// algebra change that moves either is a failed operation, whatever the
// host's timing noise does to the measured accuracy figures.
func checkSynthetic(seed uint64, chk *checker) {
	rng := rand.New(rand.NewSource(int64(seed)))
	loop := []string{"A", "B", "C", "D"}
	s := &harness.Synthetic{
		SyntheticName: "closed-form", Pre: []string{"INIT"}, Loop: loop, Post: []string{"FINAL"},
		Base:  map[string]float64{"INIT": 1 + rng.Float64(), "FINAL": 1 + rng.Float64()},
		Delta: map[string]float64{},
	}
	var base, delta float64
	for i, k := range loop {
		s.Base[k] = 1 + rng.Float64()
		d := 0.4 * (rng.Float64() - 0.5)
		s.Delta[core.Key([]string{k, loop[(i+1)%len(loop)]})] = d
		base += s.Base[k]
		delta += d
	}
	const trips = 10
	st, err := harness.RunStudy(s, trips, []int{2, len(loop)}, harness.Options{})
	if err != nil {
		chk.op(false, "synthetic study: %v", err)
		return
	}
	actual := s.Base["INIT"] + s.Base["FINAL"] + trips*(base+delta)
	wantSum := math.Abs(trips*delta) / actual
	chk.op(math.Abs(st.Summation.RelErr-wantSum) < 1e-9 && st.Couplings[len(loop)].RelErr < 1e-9,
		"synthetic study: summation error %.12f (closed form %.12f), full-ring coupling error %.3g (closed form 0)",
		st.Summation.RelErr, wantSum, st.Couplings[len(loop)].RelErr)
}

// trials accumulates passes over the analyst's studies: wall times with
// the host-speed factor of the trial each belongs to for the end-to-end
// metrics, the studies themselves for the accuracy figures.
type trials struct {
	bt, btPar2, lu       corrected
	btStudies, luStudies []*harness.Study
}

// run adds one trial, a control slice after each study; the factor is
// the window over the trial's own slices and the one before it.
func (t *trials) run(btQ, luQ predict.Query, ctl *control, chk *checker) {
	first := ctl.slices() - 1
	stBT, bt := coldStudy(btQ, 1, chk)
	ctl.mark()
	stPar, par := coldStudy(btQ, 2, chk)
	ctl.mark()
	var lus []float64
	for i := 0; i < luPerTrial; i++ {
		st, w := coldStudy(luQ, 1, chk)
		ctl.mark()
		lus, t.luStudies = append(lus, w), append(t.luStudies, st)
	}
	speed := ctl.window(first)
	t.bt.add(bt, speed)
	t.btPar2.add(par, speed)
	for _, w := range lus {
		t.lu.add(w, speed)
	}
	t.btStudies = append(t.btStudies, stBT, stPar)
}

func runCampaign(cfg runCfg) (*result, error) {
	res := newResult("campaign")
	res.clients = numClients() // the control's; the studies themselves have no client
	chk := newChecker()
	defer res.absorb(chk)
	btQ, luQ := campaignQueries(cfg.smoke)
	checkSynthetic(cfg.seed, chk)
	ctl, err := startControl(chk)
	if err != nil {
		return nil, err
	}
	defer ctl.close()

	// Set-up is the warm-up: a discarded LU study pages the code in and
	// grows the heap to its working size.
	var setups []float64
	ctl.mark()
	for i := 0; i < cfg.setups(); i++ {
		_, w := coldStudy(luQ, 1, chk)
		ctl.mark()
		setups = append(setups, w)
	}
	res.e2e["setup_s"] = median(setups) / ctl.window(0)
	res.info["raw_setups_s"] = setups

	if cfg.traced {
		return res, traceCampaign(cfg, btQ, luQ, ctl, chk, res)
	}
	var all trials
	for i := 0; i < cfg.repeats(); i++ {
		all.run(btQ, luQ, ctl, chk)
	}
	res.e2e["study_bt_s"], res.e2e["study_bt_par2_s"], res.e2e["study_lu_s"] = all.bt.time(), all.btPar2.time(), all.lu.time()
	res.info["trials"] = fmt.Sprintf("%d trials of [%s serial, same with Parallel 2, %dx %s], each study on a fresh cache after GC + FreeOSMemory and before a control slice",
		cfg.repeats(), btQ.Workload(), luPerTrial, luQ.Workload())
	res.info["raw_study_bt_s"], res.info["raw_study_bt_par2_s"], res.info["raw_study_lu_s"] = all.bt.raw, all.btPar2.raw, all.lu.raw
	ctl.describe(res.info)
	return res, nil
}

// kernelMetric maps a loop kernel to its per-layer metric name.
var kernelMetric = map[string]string{
	bt.KCopyFaces: "npb.bt.copy_faces_ns_cell", bt.KXSolve: "npb.bt.x_solve_ns_cell", bt.KYSolve: "npb.bt.y_solve_ns_cell",
	bt.KZSolve: "npb.bt.z_solve_ns_cell", bt.KAdd: "npb.bt.add_ns_cell",
	lu.KSsorIter: "npb.lu.ssor_iter_ns_cell", lu.KSsorLT: "npb.lu.lt_ns_cell", lu.KSsorUT: "npb.lu.ut_ns_cell", lu.KSsorRS: "npb.lu.rs_ns_cell",
}

// tracedStudy is coldStudy with the benchmark's own instruments
// attached: an mpi.Observer on every world, MemStats around the study,
// a span for it, and replayed children for the stages of its pipeline.
func tracedStudy(tr *tracer, name string, q predict.Query, chk *checker, l map[string]float64) (*harness.Study, float64) {
	reg := obs.NewRegistry()
	eng, err := engineFor(q, plan.NewCache(), mpi.WithObserver(mpi.NewObserver(reg, nil)))
	if err != nil {
		chk.op(false, "study %s: %v", q.Workload(), err)
		return nil, 0
	}
	quiesce()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var st *harness.Study
	id := tr.request()
	root, wall := tr.time(id, 0, "study."+name, false, func() { st, err = eng.RunCtx(context.Background(), q.Trips, q.Chains) })
	runtime.ReadMemStats(&after)
	checkStudy(chk, q, st, err)
	if err != nil {
		return nil, 0
	}
	p := "harness." + name
	l[p+"_study_mallocs"] = float64(after.Mallocs - before.Mallocs)
	l[p+"_study_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	l[p+"_study_gc_cycles"] = float64(after.NumGC - before.NumGC)
	l[p+"_worlds_executed"] = float64(st.Exec.Executed)
	l[p+"_cache_hits"] = float64(st.Exec.CacheHits)
	l["mpi."+name+"_msgs"] = float64(reg.Counter("mpi.send.count").Value())
	l["mpi."+name+"_bytes"] = float64(reg.Counter("mpi.send.bytes").Value())
	l["mpi."+name+"_recv_wait_s"] = float64(reg.Histogram("mpi.recv.wait_ns").Sum()) / 1e9
	prob, _ := tables.PredictProblem(q)
	for k, sec := range st.Measurements.Isolated {
		if m, ok := kernelMetric[k]; ok {
			l[m] = sec * 1e9 / float64(prob.Cells())
		}
	}

	// Replayed stages of the pipeline the study just ran.
	tr.time(id, root, "harness.plan", true, func() { _, err = eng.Plan(q.Trips, q.Chains) })
	_, loop, _ := eng.Workload.Kernels()
	var perPass float64
	opts := harness.Options{Blocks: q.Blocks, Passes: q.Passes}
	_, win := tr.time(id, root, "harness.window", true, func() { perPass, err = eng.Workload.MeasureWindow(loop[:q.Chains[0]], opts) })
	chk.op(err == nil, "window replay: %v", err)
	// What a window costs beyond the kernels it times: world spawn,
	// per-rank set-up, the warm-up pass and the quiesce.
	l["harness.window_overhead_ms"] = (win.Seconds() - perPass*float64(q.Blocks*q.Passes)) * 1e3
	tr.time(id, root, "harness.analyze", true, func() {
		_, err = harness.Analyze(st.App, st.Measurements, st.Actual, q.Chains, nil, false)
	})
	return st, wall.Seconds()
}

// traceCampaign is the traced run: one untraced trial for the overhead
// figure, then the same studies with instruments on. Every study of the
// run, traced or not, contributes to the accuracy figures.
func traceCampaign(cfg runCfg, btQ, luQ predict.Query, ctl *control, chk *checker, res *result) error {
	tr := newTracer()
	l := res.layers
	var plain trials
	plain.run(btQ, luQ, ctl, chk)
	studies := map[string][]*harness.Study{"bt": plain.btStudies, "lu": plain.luStudies}

	st, tracedBT := tracedStudy(tr, "bt", btQ, chk, l)
	studies["bt"] = append(studies["bt"], st)
	st, _ = coldStudy(btQ, 1, chk)
	studies["bt"] = append(studies["bt"], st)
	for i := 0; i < luPerTrial; i++ {
		st, _ := tracedStudy(tr, "lu", luQ, chk, l)
		studies["lu"] = append(studies["lu"], st)
	}
	for name, q := range map[string]predict.Query{"bt": btQ, "lu": luQ} {
		short, full := q.Chains[0], q.Chains[len(q.Chains)-1]
		var sum, cplShort, cplFull []float64
		for _, st := range studies[name] {
			if st != nil {
				sum = append(sum, st.Summation.RelErr*100)
				cplShort, cplFull = append(cplShort, st.Couplings[short].RelErr*100), append(cplFull, st.Couplings[full].RelErr*100)
			}
		}
		for metric, xs := range map[string][]float64{"sum_err_pct": sum, "cpl_err_short_pct": cplShort, "cpl_err_full_pct": cplFull} {
			l["harness."+name+"_"+metric] = median(xs)
			l["harness."+name+"_"+metric+"_iqr"] = iqr(xs)
		}
	}
	l["plan.par2_speedup"] = plain.bt.raw[0] / plain.btPar2.raw[0]
	l["trace.overhead_share"] = (tracedBT - plain.bt.raw[0]) / plain.bt.raw[0]

	// Paper section 4.1: the pair-coupling sweep across the cache
	// hierarchy and how many transitions it finds.
	scale := tables.Scale{}
	if cfg.smoke {
		scale = tables.Scale{GridOverride: 8, Trips: 2, Blocks: 2}
	}
	exp, found := tables.Find("4.1")
	var sweep *tables.Result
	err := fmt.Errorf("not in the experiment index")
	var d time.Duration
	if found {
		_, d = tr.time(tr.request(), 0, "memmodel.sweep", false, func() { sweep, err = exp.Run(scale) })
	}
	chk.op(err == nil, "section 4.1 sweep: %v", err)
	if err == nil {
		l["memmodel.sweep_s"] = d.Seconds()
		l["memmodel.transitions"] = float64(len(memmodel.Transitions(sweep.Sweep, 0.08)))
	}
	res.info["untraced_study_bt_s"] = plain.bt.raw[0]

	probeLayers(cfg, res, chk)
	return tr.write(cfg.tracePath())
}
