package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/tables"
)

// engineFor builds the measurement engine for a query from the same
// public builders serve and tables.BackendConfig use, so its job keys
// match a cache either of them warmed — a replayed RunFromCache that
// misses would mean the benchmark is timing a different path.
func engineFor(q predict.Query, cache *plan.Cache, worldOpts ...mpi.Option) (harness.Engine, error) {
	prob, err := tables.PredictProblem(q)
	if err != nil {
		return harness.Engine{}, err
	}
	w, err := tables.NewWorkload(q.Bench, q.Class, prob, q.Procs, worldOpts)
	if err != nil {
		return harness.Engine{}, err
	}
	return harness.Engine{Workload: w, Opts: harness.Options{
		Blocks: q.Blocks, Passes: q.Passes, ActualRuns: 3,
		Cache:       cache,
		WorldDigest: tables.WorldDigest(prob, nil),
	}}, nil
}

// recorder is the in-memory ResponseWriter handler replays write to.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(code int)        { r.code = code }

func (r *recorder) reset() {
	r.header = make(http.Header)
	r.body.Reset()
	r.code = http.StatusOK
}

// replayer re-runs a request in-process, layer by layer. plain is a
// server with no tracer, guard or cluster; guarded and traced (nil
// where the workload does not price them) each add exactly one option
// to it, so a difference in handler time is that option's cost. cache
// is a warm cache the layer calls read, as the handler's own would.
type replayer struct {
	plain, guarded, traced http.Handler
	cache                  *plan.Cache
}

// replay records the handler call for (e, k) and, for a plain
// /predict, each layer call that handler makes, as children of parent.
// It reports whether every replayed call succeeded.
func (rp *replayer) replay(tr *tracer, reqID, parent int, e endpoint, k key) bool {
	req := httptest.NewRequest(http.MethodGet, pathFor(e, k), nil)
	var rec recorder
	rec.reset()
	name := "serve.handler"
	if e != epPredict {
		name = "serve.handler." + e.String()
	}
	hid, _ := tr.time(reqID, parent, name, true, func() { rp.plain.ServeHTTP(&rec, req) })
	ok := rec.code == http.StatusOK
	if e != epPredict {
		return ok
	}
	body := append([]byte(nil), rec.body.Bytes()...)
	for _, opt := range []struct {
		name string
		h    http.Handler
	}{{"serve.handler+guard", rp.guarded}, {"serve.handler+tracer", rp.traced}} {
		if opt.h == nil {
			continue
		}
		rec.reset()
		tr.time(reqID, parent, opt.name, true, func() { opt.h.ServeHTTP(&rec, req) })
		ok = ok && rec.code == http.StatusOK && bytes.Equal(body, rec.body.Bytes())
	}

	var q serve.Query
	var err error
	tr.time(reqID, hid, "serve.parse", true, func() { q, err = serve.ParseQuery(req.URL.Query()) })
	ok = ok && err == nil
	tr.time(reqID, hid, "serve.key", true, func() { _ = q.Key() })
	pq := q.PredictQuery()
	var eng harness.Engine
	var st *harness.Study
	rid, _ := tr.time(reqID, hid, "harness.run_from_cache", true, func() {
		if eng, err = engineFor(pq, rp.cache); err == nil {
			st, err = eng.RunFromCache(pq.Trips, pq.Chains)
		}
	})
	if err != nil {
		return false
	}
	var jobs []plan.Job
	tr.time(reqID, rid, "harness.plan", true, func() { jobs, err = eng.Plan(pq.Trips, pq.Chains) })
	ok = ok && err == nil
	tr.time(reqID, rid, "plan.cache_get", true, func() {
		for _, j := range jobs {
			if _, hit := rp.cache.Get(j); !hit {
				ok = false
			}
		}
	})
	tr.time(reqID, rid, "harness.analyze", true, func() {
		_, err = harness.Analyze(st.App, st.Measurements, st.Actual, pq.Chains, nil, false)
	})
	ok = ok && err == nil
	var resp serve.PredictResponse
	if json.Unmarshal(body, &resp) != nil {
		return false
	}
	// The handler renders with MarshalIndent; the replay does the same so
	// the span prices the call the handler makes, not a cheaper cousin.
	tr.time(reqID, hid, "serve.render", true, func() { _, err = json.MarshalIndent(resp, "", "  ") })
	return ok && err == nil
}

// handlerAllocs counts mallocs and bytes per call of h for k, exactly,
// from MemStats deltas over n calls. It must run while nothing else in
// the process allocates.
func handlerAllocs(h http.Handler, k key, n int) (mallocs, bytesPer float64) {
	req := httptest.NewRequest(http.MethodGet, pathFor(epPredict, k), nil)
	var rec recorder
	rec.reset()
	h.ServeHTTP(&rec, req)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		rec.body.Reset()
		h.ServeHTTP(&rec, req)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// medianOf times n calls of fn and returns the median in nanoseconds.
// When one call is too short for the clock, each timed sample is batch
// calls and the per-call time is the batch time divided by batch.
func medianOf(n, batch int, fn func()) float64 {
	fn()
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			fn()
		}
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(batch)
	}
	return median(samples)
}
