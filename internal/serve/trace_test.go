package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/timing"
)

// TestPredictTraceHeaderAndSpans: a traced server stamps X-Trace-Id on
// the response, keeps the body byte-identical to an untraced server's,
// and retains a span tree covering the serving stages.
func TestPredictTraceHeaderAndSpans(t *testing.T) {
	plain, err := New(Config{Cache: warmedCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewRequestTracer(obs.TracerConfig{Recorder: obs.NewFlightRecorder(8, 8)})
	traced, err := New(Config{Cache: warmedCache(t), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	tsTraced := httptest.NewServer(traced.Handler())
	defer tsTraced.Close()

	ref := get(t, tsPlain.URL, "/predict?"+warmQS, 200)
	resp, err := tsTraced.Client().Get(tsTraced.URL + "/predict?" + warmQS)
	if err != nil {
		t.Fatal(err)
	}
	body := get(t, tsTraced.URL, "/predict?"+warmQS, 200)
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("traced /predict carries no X-Trace-Id")
	}
	if !bytes.Equal(ref, body) {
		t.Error("tracing changed the /predict body")
	}
	if h := resp.Header.Get("X-Trace-Id"); h != "t-00000001" {
		t.Errorf("first trace ID = %q, want t-00000001", h)
	}

	// The first request found the memo empty and took the flight; the
	// second was answered from the memo on its own goroutine.
	dump := tracer.Recorder().Snapshot()
	if dump.Seen != 2 {
		t.Fatalf("recorder saw %d traces, want 2", dump.Seen)
	}
	want := map[string]string{
		"t-00000001": "setup parse cache.memo:miss singleflight respond",
		"t-00000002": "setup parse cache.memo:hit respond",
	}
	for _, td := range dump.Slowest {
		var stages []string
		for _, c := range td.Root.Children {
			stage := c.Name
			if c.Name == "cache.memo" {
				stage += ":" + c.Detail
			}
			stages = append(stages, stage)
		}
		if got := strings.Join(stages, " "); got != want[td.ID] {
			t.Errorf("trace %s stages %q, want %q", td.ID, got, want[td.ID])
		}
		if role := attr(td, "singleflight"); (role == "") != (td.ID == "t-00000002") {
			t.Errorf("trace %s singleflight role %q", td.ID, role)
		}
	}
}

// TestTraceIDPropagatesAcrossSingleflight: followers collapsed onto a
// leader's flight record their own role and the leader's trace ID — the
// cross-request causality link the flight recorder exposes.
func TestTraceIDPropagatesAcrossSingleflight(t *testing.T) {
	tracer := obs.NewRequestTracer(obs.TracerConfig{Recorder: obs.NewFlightRecorder(64, 8)})
	srv, err := New(Config{Cache: warmedCache(t), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.analyze
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		close(entered)
		<-release
		return inner(ctx, q)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 6
	key := warmQuery(t).Key()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, ts.URL, "/predict?"+warmQS, 200)
	}()
	<-entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, ts.URL, "/predict?"+warmQS, 200)
		}()
	}
	for srv.sf.Waiters(key) < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	dump := tracer.Recorder().Snapshot()
	var leaderID string
	ids := map[string]bool{}
	followers := 0
	for _, td := range dump.Slowest {
		if td.Endpoint != "predict" {
			continue
		}
		ids[td.ID] = true
		role := attr(td, "singleflight")
		switch role {
		case "leader":
			if leaderID != "" {
				t.Fatalf("two leaders: %s and %s", leaderID, td.ID)
			}
			leaderID = td.ID
		case "follower":
			followers++
		default:
			t.Errorf("trace %s has no singleflight role", td.ID)
		}
	}
	if len(ids) != n {
		t.Fatalf("recorded %d distinct predict traces, want %d", len(ids), n)
	}
	if leaderID == "" || followers != n-1 {
		t.Fatalf("leader=%q followers=%d, want one leader and %d followers", leaderID, followers, n-1)
	}
	for _, td := range dump.Slowest {
		if td.Endpoint != "predict" || attr(td, "singleflight") != "follower" {
			continue
		}
		if got := attr(td, "singleflight_leader"); got != leaderID {
			t.Errorf("follower %s names leader %q, want %q", td.ID, got, leaderID)
		}
	}
}

// attr extracts one annotation from a serialized trace.
func attr(td obs.TraceDump, key string) string {
	for _, a := range td.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestDebugRequestsDeterministic: with a fake clock and a sequential
// request schedule, two fresh servers produce byte-identical
// /debug/requests dumps — trace IDs, span offsets, durations and all.
func TestDebugRequestsDeterministic(t *testing.T) {
	build := func() []byte {
		fc := &timing.FakeClock{T: time.Unix(0, 0), Steps: []time.Duration{time.Microsecond}}
		tracer := obs.NewRequestTracer(obs.TracerConfig{
			Clock:    fc,
			Recorder: obs.NewFlightRecorder(16, 8),
		})
		srv, err := New(Config{Cache: warmedCache(t), Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for i := 0; i < 3; i++ {
			get(t, ts.URL, "/predict?"+warmQS, 200)
		}
		get(t, ts.URL, "/predict?"+warmQS+"&procs=abc", 400) // errored ring entry
		get(t, ts.URL, "/couplings?"+warmQS, 200)
		return get(t, ts.URL, "/debug/requests", 200)
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("seeded /debug/requests dumps differ:\na: %s\nb: %s", a, b)
	}
	if !bytes.Contains(a, []byte(`"t-00000001"`)) {
		t.Errorf("dump missing deterministic trace ID:\n%s", a)
	}
	if !bytes.Contains(a, []byte(`"errored"`)) {
		t.Errorf("dump missing errored ring:\n%s", a)
	}
}

// TestDebugRequestsDisabled: without a tracer the endpoint 404s with a
// actionable message instead of serving an empty dump.
func TestDebugRequestsDisabled(t *testing.T) {
	srv, err := New(Config{Cache: warmedCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := get(t, ts.URL, "/debug/requests", 404)
	if !bytes.Contains(body, []byte("tracing is disabled")) {
		t.Errorf("404 body = %s", body)
	}
}

// TestTracedWarmPredictAllocs prices the tracer and the guard on the warm
// /predict path in allocations, handler to handler with no network in
// between. A warm answer is given on the request's own goroutine, guard
// or not: no flight runs. The budgets are what the path costs:
//
//   - untraced, 37: the engine and its key, the query parse, the
//     response and the recorder's header copies; the render reuses a
//     pooled encoder and buffer.
//   - tracing, 7 more: the trace with its spans inline, its ID, the
//     context value carrying it, the request copy that installs it, its
//     X-Trace-Id header, and the memo peek's stage context. A span whose
//     context nothing below needs opens none.
//   - guarding, 5 more: the budget and the context value carrying it, the
//     request copy, and the stale cache's family key and boxed answer. No
//     deadline timer: a warm answer waits nowhere, so nothing arms one.
//   - both, as a fleet node runs (benchmark serve_fleet's guard), 11
//     more: the two above sharing one request copy.
//
// sync.Pool drops a quarter of its Puts under the race detector, so the
// budgets are checked in a plain build (scripts/ci.sh runs this test in
// its plain line); a -race run still checks that no flight runs.
func TestTracedWarmPredictAllocs(t *testing.T) {
	allocs := func(cfg Config) float64 {
		reg := obs.NewRegistry()
		cfg.Cache, cfg.Metrics = warmedCache(t), reg
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		req := httptest.NewRequest(http.MethodGet, "/predict?"+warmQS, nil)
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("warm /predict = %d: %s", rec.Code, rec.Body)
			}
		}
		serve() // first request loads the disk tier and fills the memo
		flights := reg.Counter("serve.analysis.count").Value()
		n := testing.AllocsPerRun(200, serve)
		if got := reg.Counter("serve.analysis.count").Value(); got != flights {
			t.Errorf("warm requests took %d flights, want none", got-flights)
		}
		return n
	}
	tracer := func() *obs.RequestTracer {
		return obs.NewRequestTracer(obs.TracerConfig{Recorder: obs.NewFlightRecorder(0, 0)})
	}
	plain := allocs(Config{})
	traced := allocs(Config{Tracer: tracer()})
	guarded := allocs(Config{Guard: guard.New(guard.Config{
		Deadline: 10 * time.Second, LeaderBudget: 10 * time.Second,
		MaxInflight: 64, StaleCap: 64,
	})})
	fleet := allocs(Config{Tracer: tracer(), Guard: guard.New(guard.Config{
		Deadline: 10 * time.Second, LeaderBudget: 10 * time.Second,
		MaxInflight: 64, QueueDepth: 128, RetryRatio: 0.1, StaleCap: 64, Seed: 1,
	})})
	t.Logf("warm /predict allocs: untraced %.0f, traced %.0f, guarded %.0f, guarded and traced %.0f", plain, traced, guarded, fleet)
	if raceEnabled() {
		t.Log("allocation budgets not checked: sync.Pool drops Puts under -race")
	} else {
		// At 434 the untraced path planned, hashed and analysed the study
		// again on every request.
		if plain > 37 {
			t.Errorf("an untraced warm /predict costs %.0f allocs, budget 37: the warm path is re-deriving or re-rendering its answer", plain)
		}
		for _, c := range []struct {
			name        string
			got, budget float64
		}{
			{"tracing", traced, 7},
			{"the guard", guarded, 5},
			{"the guard and tracing", fleet, 11},
		} {
			if delta := c.got - plain; delta > c.budget {
				t.Errorf("%s costs %.0f allocs per warm /predict (%.0f vs %.0f), budget %.0f", c.name, delta, c.got, plain, c.budget)
			}
		}
	}
	ctx := t.Context()
	if n := testing.AllocsPerRun(100, func() {
		sp, sctx := obs.StartSpan(ctx, "cache.load", "jobs=16")
		sp.SetDetail("hit")
		sp.End()
		obs.TraceFrom(sctx).Annotate("cache", "hit")
	}); n != 0 {
		t.Errorf("an untraced instrumentation point allocates %.0f times, want 0", n)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, _ := debug.ReadBuildInfo()
	if bi == nil {
		return false
	}
	for _, st := range bi.Settings {
		if st.Key == "-race" {
			return st.Value == "true"
		}
	}
	return false
}
