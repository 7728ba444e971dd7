package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

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

	dump := tracer.Recorder().Snapshot()
	if dump.Seen != 2 {
		t.Fatalf("recorder saw %d traces, want 2", dump.Seen)
	}
	stages := map[string]bool{}
	for _, c := range dump.Slowest[0].Root.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"parse", "singleflight", "respond"} {
		if !stages[want] {
			t.Errorf("trace missing %q stage: %+v", want, dump.Slowest[0].Root)
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

// TestTracedWarmPredictAllocs prices the tracer on the warm /predict
// path in allocations, handler to handler with no network in between:
// a trace, its span list, its ID, the context values that carry it and
// one context per stage — at most 33 a request, the figure the
// tree-of-pointers layout this replaced cost end to end. The untraced
// server pays nothing: with no trace in the context every
// instrumentation point is one failed lookup and the zero handle's
// methods are no-ops, so none of them allocates.
func TestTracedWarmPredictAllocs(t *testing.T) {
	allocs := func(cfg Config) float64 {
		cfg.Cache = warmedCache(t)
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
		serve() // first request loads the disk tier into memory
		return testing.AllocsPerRun(200, serve)
	}
	plain := allocs(Config{})
	traced := allocs(Config{Tracer: obs.NewRequestTracer(obs.TracerConfig{Recorder: obs.NewFlightRecorder(0, 0)})})
	t.Logf("warm /predict allocs: untraced %.0f, traced %.0f", plain, traced)
	// The untraced figure has a ceiling of its own: a warm request builds
	// its engine, renders one key, finds the memoised study and marshals
	// it. At 434 it planned, hashed and analysed the study again.
	if plain > 80 {
		t.Errorf("an untraced warm /predict costs %.0f allocs, ceiling 80: the warm path is re-deriving its answer", plain)
	}
	if delta := traced - plain; delta > 33 {
		t.Errorf("tracing costs %.0f allocs per warm /predict (%.0f vs %.0f), budget 33", delta, traced, plain)
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
