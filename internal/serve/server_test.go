package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
)

// The tests share one disk cache warmed with exactly this configuration
// — the same tiny BT study scripts/ci.sh warms — so only the first test
// that needs it pays the measurement cost.
const warmQS = "bench=BT&class=S&procs=4&chains=2&trips=2&blocks=2&passes=1&grid=8"

func warmQuery(t *testing.T) Query {
	t.Helper()
	v, err := url.ParseQuery(warmQS)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(v)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

var (
	warmOnce sync.Once
	warmDir  string
	warmErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if warmDir != "" {
		os.RemoveAll(warmDir)
	}
	os.Exit(code)
}

// warmedCache returns a fresh dir-backed cache instance over the shared
// warmed directory, so every test sees the disk state a restarted
// service would.
func warmedCache(t *testing.T) *plan.Cache {
	t.Helper()
	warmOnce.Do(func() {
		warmDir, warmErr = os.MkdirTemp("", "serve-warm-cache-")
		if warmErr != nil {
			return
		}
		cache, err := plan.NewDirCache(warmDir)
		if err != nil {
			warmErr = err
			return
		}
		srv, err := New(Config{Cache: cache, Measure: true})
		if err != nil {
			warmErr = err
			return
		}
		v, _ := url.ParseQuery(warmQS)
		q, err := ParseQuery(v)
		if err != nil {
			warmErr = err
			return
		}
		if _, err := srv.runQuery(context.Background(), q); err != nil {
			warmErr = fmt.Errorf("warming study: %w", err)
		}
	})
	if warmErr != nil {
		t.Fatal(warmErr)
	}
	cache, err := plan.NewDirCache(warmDir)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

func get(t *testing.T, base, path string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d\n%s", path, resp.StatusCode, wantCode, body)
	}
	return body
}

// TestPredictFromWarmCacheIsDeterministicAndRunsNothing: the core serving
// contract — a warm cache answers /predict byte-identically on every
// request, across service restarts, with zero worlds executed.
func TestPredictFromWarmCacheIsDeterministicAndRunsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	b1 := get(t, ts.URL, "/predict?"+warmQS, http.StatusOK)
	b2 := get(t, ts.URL, "/predict?"+warmQS, http.StatusOK)
	if !bytes.Equal(b1, b2) {
		t.Errorf("repeated /predict bodies differ:\n%s\n---\n%s", b1, b2)
	}
	var pr PredictResponse
	if err := json.Unmarshal(b1, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Exec.Executed != 0 {
		t.Errorf("warm-cache /predict executed %d worlds, want 0", pr.Exec.Executed)
	}
	if pr.Exec.CacheHits != pr.Exec.Planned || pr.Exec.Planned == 0 {
		t.Errorf("exec = %+v, want every planned job cache-served", pr.Exec)
	}
	if len(pr.Predictors) < 2 || pr.Predictors[0].Label != "Summation" {
		t.Errorf("predictors = %+v, want summation then couplings", pr.Predictors)
	}
	if pr.ActualSeconds <= 0 {
		t.Errorf("actual = %v", pr.ActualSeconds)
	}

	// A restarted service over the same directory serves the same bytes.
	srv2, err := New(Config{Cache: warmedCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if b3 := get(t, ts2.URL, "/predict?"+warmQS, http.StatusOK); !bytes.Equal(b1, b3) {
		t.Error("restarted service serves different /predict bytes")
	}

	// Defaults resolve before the query key forms, so an equivalent query
	// with explicit defaults omitted is the same study (trips=0 resolves
	// to the class default, though, so it must be spelled out here).
	if b4 := get(t, ts.URL, "/predict?bench=bt&grid=8&trips=2&procs=4&chains=2&blocks=2", http.StatusOK); !bytes.Equal(b1, b4) {
		t.Error("equivalent query with defaulted parameters serves different bytes")
	}
}

func TestCouplingsAndStudyEndpoints(t *testing.T) {
	srv, err := New(Config{Cache: warmedCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var cr CouplingsResponse
	if err := json.Unmarshal(get(t, ts.URL, "/couplings?"+warmQS, http.StatusOK), &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Chains) != 1 || cr.Chains[0].ChainLen != 2 {
		t.Fatalf("chains = %+v, want exactly L=2", cr.Chains)
	}
	cc := cr.Chains[0]
	if len(cc.Windows) == 0 || len(cc.Coefficients) == 0 {
		t.Fatalf("L=2 has %d windows, %d coefficients", len(cc.Windows), len(cc.Coefficients))
	}
	for _, w := range cc.Windows {
		if len(w.Window) != 2 || w.Coupling <= 0 || w.ChainedSeconds <= 0 {
			t.Errorf("bad window %+v", w)
		}
	}

	study := string(get(t, ts.URL, "/study?"+warmQS, http.StatusOK))
	for _, want := range []string{"BT.S.4", "Summation", "Coupling"} {
		if !strings.Contains(study, want) {
			t.Errorf("/study output missing %q:\n%s", want, study)
		}
	}

	metrics := string(get(t, ts.URL, "/metrics", http.StatusOK))
	for _, want := range []string{"serve.req.couplings.count", "serve.req.study.count", "harness.cache.hit"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(string(get(t, ts.URL, "/healthz", http.StatusOK)), `"status": "ok"`) {
		t.Error("bad /healthz body")
	}
}

// TestPredictSingleflightCollapse: N identical in-flight queries cost
// exactly one analysis; the followers share the leader's study and the
// collapse is visible on the obs counters.
func TestPredictSingleflightCollapse(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.analyze
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		close(entered) // only the singleflight leader runs this
		<-release
		return inner(ctx, q)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	key := warmQuery(t).Key()
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	fire := func(i int) {
		defer wg.Done()
		bodies[i] = get(t, ts.URL, "/predict?"+warmQS, http.StatusOK)
	}
	wg.Add(1)
	go fire(0)
	<-entered // the leader is inside the (stalled) analysis
	for i := 1; i < n; i++ {
		wg.Add(1)
		go fire(i)
	}
	// Wait until every follower is queued behind the leader's flight,
	// then let it finish: all n requests must resolve to one analysis.
	for srv.sf.Waiters(key) < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("caller %d got different bytes than the leader", i)
		}
	}
	if got := reg.Counter("serve.analysis.count").Value(); got != 1 {
		t.Errorf("analysis.count = %d, want 1", got)
	}
	if got := reg.Counter("serve.singleflight.shared").Value(); got != n-1 {
		t.Errorf("singleflight.shared = %d, want %d", got, n-1)
	}
	if got := reg.Counter("serve.req.predict.count").Value(); got != n {
		t.Errorf("predict.count = %d, want %d", got, n)
	}
}

// TestConcurrentMixedRequests hammers every endpoint from 100 goroutines
// — the race-detector workout for the whole serving path, including the
// cache's lock discipline underneath it. The three study endpoints ask
// for one key, so they all render the one *harness.Study the cache
// memoises for it: a handler that wrote to that study would race here,
// and one that changed it would change a body.
func TestConcurrentMixedRequests(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := []string{
		"/predict?" + warmQS,
		"/couplings?" + warmQS,
		"/study?" + warmQS,
		"/healthz",
		"/metrics",
	}
	// The study endpoints' bodies before the burst; every body inside it
	// must match.
	ref := make([][]byte, 3)
	for i := range ref {
		ref[i] = get(t, ts.URL, paths[i], http.StatusOK)
	}
	const n = 100
	var wg sync.WaitGroup
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pi := i % len(paths)
			path := paths[pi]
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errc <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("GET %s = %d", path, resp.StatusCode)
			}
			if pi < len(ref) && !bytes.Equal(body, ref[pi]) {
				errc <- fmt.Errorf("GET %s under concurrency differs from its body before it:\n%s\n---\n%s", path, body, ref[pi])
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := reg.Gauge("serve.inflight").Value(); got != 0 {
		t.Errorf("inflight gauge = %d after drain, want 0", got)
	}
}

// TestPanicInAFlightIsA500: a panic while resolving a query answers 500
// and the server goes on serving, wherever it happens. In a flight's
// analysis: with a guard the flight runs on a goroutine of its own, where
// a panic nothing recovers ends the process. In the memo peek, on the
// request's own goroutine: net/http would drop the connection, and an
// admitted request would keep its admission slot for good. Guarded and
// unguarded servers answer the same body, and the slot comes back.
func TestPanicInAFlightIsA500(t *testing.T) {
	for _, site := range []string{"analysis", "peek"} {
		var bodies [][]byte
		for _, g := range []*guard.Guard{nil, guard.New(guard.Config{Deadline: 5 * time.Second, MaxInflight: 1})} {
			srv, err := New(Config{Cache: warmedCache(t), Guard: g})
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int32
			switch site {
			case "analysis":
				inner := srv.analyze
				srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
					if calls.Add(1) == 1 {
						panic("analysis blew up")
					}
					return inner(ctx, q)
				}
			case "peek":
				srv.chains[""] = predict.NewChain(nil, panickyPeek{srv.chains[""], &calls})
			}
			ts := httptest.NewServer(srv.Handler())
			bodies = append(bodies, get(t, ts.URL, "/predict?"+warmQS, http.StatusInternalServerError))
			get(t, ts.URL, "/predict?"+warmQS, http.StatusOK)
			ts.Close()
			if g != nil {
				if n := g.Admission.Inflight(); n != 0 {
					t.Errorf("%s: %d admission slots held after the requests, want 0", site, n)
				}
			}
		}
		if !bytes.Contains(bodies[0], []byte(site+" blew up")) {
			t.Errorf("%s: 500 body does not name the panic: %s", site, bodies[0])
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("%s: the guarded server's 500 differs from the unguarded one's:\n%s\n---\n%s", site, bodies[1], bodies[0])
		}
	}
}

// panickyPeek is a chain whose first peek panics.
type panickyPeek struct {
	*predict.Chain
	calls *atomic.Int32
}

func (p panickyPeek) Peek(ctx context.Context, q predict.Query) (predict.Prediction, bool) {
	if p.calls.Add(1) == 1 {
		panic("peek blew up")
	}
	return p.Chain.Peek(ctx, q)
}

// TestWriteJSONIsMarshalIndent: the pooled render writes exactly
// json.MarshalIndent(v, "", "  ") and a newline for every body the
// service renders — HTML-escaped strings included — from many goroutines
// at once; a failed render writes nothing and leaves no bytes in the
// pool, and a body too large to keep in the pool renders the same.
func TestWriteJSONIsMarshalIndent(t *testing.T) {
	srv, err := New(Config{Cache: warmedCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := srv.analyze(t.Context(), warmQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	const esc = "<b>a & b</b> \u2028"
	rec := obs.NewFlightRecorder(4, 4)
	rt := obs.NewRequestTracer(obs.TracerConfig{Recorder: rec})
	for _, status := range []int{http.StatusOK, http.StatusInternalServerError} {
		tr := rt.Start("predict")
		tr.Root().StartChild("parse", esc).End()
		tr.Annotate("cache", esc)
		errMsg := ""
		if status != http.StatusOK {
			errMsg = esc
		}
		rt.Finish(tr, status, errMsg)
	}
	pooled := PredictResponse{
		Workload: esc, Trips: 2, ActualSeconds: 0.25,
		Predictors: []Predictor{{Label: esc, Seconds: 1.0 / 3}, {Label: "Coupling: 2 kernels", ChainLen: 2, Seconds: 0.3, RelativeError: 1e-9}},
		Exec:       pr.Study.Exec, Degraded: "stale", Backend: "analytic", Provenance: "analytic",
		Confidence: &predict.Band{Lo: 0.1, Hi: 0.2}, WindowBands: []predict.WindowBand{{Window: []string{esc}, C: 0.9, Lo: 0.8, Hi: 1}},
	}
	big := pooled
	big.Predictors = make([]Predictor, 1000)
	for i := range big.Predictors {
		big.Predictors[i] = Predictor{Label: esc, ChainLen: i, Seconds: float64(i) / 7}
	}
	values := []any{
		pooled,
		CouplingsResponse{Workload: esc, Trips: 2, Chains: []ChainCouplings{{
			ChainLen: 2, PredictedSeconds: 0.5,
			Coefficients: []KernelCoefficient{{Kernel: esc, Alpha: 0.5}},
			Windows:      []WindowCoupling{{Window: []string{"x<", "y&"}, ChainedSeconds: 1, ExpectedSeconds: 1.1, Coupling: 0.9}},
		}}},
		cluster.FillResponse{Key: esc, Prediction: pr},
		errorBody(&missError{err: errors.New(esc), backends: []string{"cached", "analytic"}}, esc),
		errorBody(errors.New(esc), esc),
		healthResponse{Status: "ok"},
		rec.Snapshot(),
		big,
	}
	want := make([][]byte, len(values))
	for i, v := range values {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(b, '\n')
	}
	if len(want[len(want)-1]) <= maxPooledJSON {
		t.Fatalf("the large body is %d bytes, not above the pool's %d", len(want[len(want)-1]), maxPooledJSON)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				w := httptest.NewRecorder()
				if i%5 == 0 {
					if err := writeJSON(w, http.StatusOK, math.NaN()); err == nil || w.Body.Len() != 0 {
						t.Errorf("rendering NaN: err %v, wrote %q", err, w.Body)
					}
					continue
				}
				k := (g + i) % len(values)
				if err := writeJSON(w, http.StatusCreated, values[k]); err != nil {
					t.Errorf("body %d: %v", k, err)
					continue
				}
				if w.Code != http.StatusCreated || w.Header().Get("Content-Type") != "application/json" {
					t.Errorf("body %d: status %d, Content-Type %q", k, w.Code, w.Header().Get("Content-Type"))
				}
				if !bytes.Equal(w.Body.Bytes(), want[k]) {
					t.Errorf("body %d differs from MarshalIndent:\n%s\n---\n%s", k, w.Body.Bytes(), want[k])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestColdThenWarmBodies: only a from-cache analysis fills the study
// memo, never the measurement that warmed the cache. So on every study
// endpoint the request that measures a cold key answers as the
// measurement it was (executed > 0), and the next two answer from the
// cache, byte for byte alike, every planned job a hit.
func TestColdThenWarmBodies(t *testing.T) {
	reg := obs.NewRegistry()
	srv, err := New(Config{Cache: plan.NewCache(), Metrics: reg, Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i, endpoint := range []string{"/predict", "/couplings", "/study"} {
		// One cold key per endpoint, so each sees its own first request.
		qs := fmt.Sprintf("bench=BT&grid=%d&trips=1&procs=4&chains=2&blocks=1", 6+2*i)
		measured := reg.Counter("serve.measure.ondemand").Value()
		cold := get(t, ts.URL, endpoint+"?"+qs, http.StatusOK)
		if got := reg.Counter("serve.measure.ondemand").Value(); got != measured+1 {
			t.Fatalf("%s: cold request measured %d times, want once", endpoint, got-measured)
		}
		warm1 := get(t, ts.URL, endpoint+"?"+qs, http.StatusOK)
		warm2 := get(t, ts.URL, endpoint+"?"+qs, http.StatusOK)
		if got := reg.Counter("serve.measure.ondemand").Value(); got != measured+1 {
			t.Errorf("%s: a warm request measured again", endpoint)
		}
		if !bytes.Equal(warm1, warm2) {
			t.Errorf("%s: warm bodies differ:\n%s\n---\n%s", endpoint, warm1, warm2)
		}
		if endpoint != "/predict" {
			// These bodies carry no execution record, so the measuring
			// request and the memoised analysis must render alike.
			if !bytes.Equal(cold, warm1) {
				t.Errorf("%s: the measured study and its from-cache analysis render differently:\n%s\n---\n%s", endpoint, cold, warm1)
			}
			continue
		}
		var first, second PredictResponse
		if err := json.Unmarshal(cold, &first); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(warm1, &second); err != nil {
			t.Fatal(err)
		}
		if first.Exec.Executed == 0 {
			t.Errorf("cold /predict exec = %+v, want executed > 0", first.Exec)
		}
		if second.Exec.Executed != 0 || second.Exec.Planned == 0 || second.Exec.CacheHits != second.Exec.Planned {
			t.Errorf("warm /predict exec = %+v, want every planned job a cache hit", second.Exec)
		}
	}
}

// TestOnDemandMeasurementWarmsCache: with -measure the first query over a
// cold cache runs the study (bounded by the worker pool) and persists it;
// every later query — including after a restart — is pure analysis.
func TestOnDemandMeasurementWarmsCache(t *testing.T) {
	dir := t.TempDir()
	cache, err := plan.NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv, err := New(Config{Cache: cache, Metrics: reg, Measure: true, MeasureWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qs := "bench=BT&grid=6&trips=1&procs=4&chains=2&blocks=2"
	var first PredictResponse
	if err := json.Unmarshal(get(t, ts.URL, "/predict?"+qs, http.StatusOK), &first); err != nil {
		t.Fatal(err)
	}
	if first.Exec.Executed == 0 {
		t.Error("cold-cache measured query reports zero executed jobs")
	}
	if got := reg.Counter("serve.measure.ondemand").Value(); got != 1 {
		t.Errorf("ondemand counter = %d, want 1", got)
	}

	second := get(t, ts.URL, "/predict?"+qs, http.StatusOK)
	var sr PredictResponse
	if err := json.Unmarshal(second, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Exec.Executed != 0 {
		t.Errorf("second query executed %d jobs, want 0 (cache warmed on demand)", sr.Exec.Executed)
	}
	if got := reg.Counter("serve.measure.ondemand").Value(); got != 1 {
		t.Errorf("ondemand counter = %d after warm query, want still 1", got)
	}

	// Everything the study measured is one line each of one file.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "measurements.log" {
		t.Errorf("cache directory after an on-demand study holds %v, want the log alone", ents)
	}

	// A measurement-disabled service over the same directory now serves
	// the query the measured one warmed.
	cache2, err := plan.NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Cache: cache2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if b := get(t, ts2.URL, "/predict?"+qs, http.StatusOK); !bytes.Equal(second, b) {
		t.Error("restarted read-only service serves different bytes than the warming one")
	}
}

func TestErrorPaths(t *testing.T) {
	srv, err := New(Config{Cache: warmedCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		path string
		code int
		want string
	}{
		{"/predict?bench=XX", http.StatusBadRequest, "unknown benchmark"},
		{"/predict?bogus=1", http.StatusBadRequest, "unknown parameter"},
		{"/predict?chains=1", http.StatusBadRequest, "chain length"},
		{"/predict?chains=abc", http.StatusBadRequest, "bad chains"},
		{"/predict?procs=0", http.StatusBadRequest, "procs"},
		// Chain longer than the loop: a planning error, not a cache miss.
		{"/predict?" + warmQS + "&chains=99", http.StatusBadRequest, ""},
		// Valid query the cache has never seen, measurement off.
		{"/predict?bench=LU&class=W&procs=8", http.StatusNotFound, "cache has no result"},
		{"/nowhere", http.StatusNotFound, ""},
	} {
		body := get(t, ts.URL, tc.path, tc.code)
		if tc.want != "" && !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s body missing %q:\n%s", tc.path, tc.want, body)
		}
	}

	if resp, err := http.Post(ts.URL+"/predict?"+warmQS, "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /predict = %d, want 405", resp.StatusCode)
		}
	}

	if _, err := New(Config{}); err == nil {
		t.Error("New without a cache must fail")
	}
}

func TestParseQueryCanonicalKey(t *testing.T) {
	parse := func(qs string) Query {
		t.Helper()
		v, err := url.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseQuery(v)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", qs, err)
		}
		return q
	}
	// Defaults, case and chain order all resolve before the key forms.
	a := parse("")
	b := parse("bench=bt&class=s&procs=4&chains=2&blocks=3&passes=1")
	if a.Key() != b.Key() {
		t.Errorf("default key %q != explicit key %q", a.Key(), b.Key())
	}
	if c := parse("chains=5,2,2,3"); fmt.Sprint(c.Chains) != "[2 3 5]" {
		t.Errorf("chains = %v, want sorted dedup [2 3 5]", c.Chains)
	}
	// trips=0 resolves to the class default so the two spellings share
	// one singleflight identity.
	if x, y := parse("class=S&trips=0"), parse("class=S&trips=60"); x.Key() != y.Key() {
		t.Errorf("trips=0 key %q != trips=60 key %q", x.Key(), y.Key())
	}
}

// measuringServer starts a server that measures misses on demand over a
// fresh cache directory.
func measuringServer(t *testing.T, workers int) (*httptest.Server, *obs.Registry) {
	t.Helper()
	cache, err := plan.NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cache.Close() })
	reg := obs.NewRegistry()
	srv, err := New(Config{Cache: cache, Metrics: reg, Measure: true, MeasureWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

// TestColdRequestsOfOneConfigurationShareRankState: rank state is the
// server's, not the request's. Two cold requests that differ only in
// their chains run their worlds through one factory: the first world of
// the first request builds, every world after it — the second request's
// first included — rebinds.
func TestColdRequestsOfOneConfigurationShareRankState(t *testing.T) {
	ts, reg := measuringServer(t, 1)
	executed := 0
	for _, chains := range []string{"2", "3"} {
		var resp PredictResponse
		if err := json.Unmarshal(get(t, ts.URL, "/predict?bench=LU&grid=6&trips=1&procs=4&blocks=1&chains="+chains, http.StatusOK), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Exec.Executed == 0 {
			t.Fatalf("chains=%s ran no world: the request was not cold", chains)
		}
		executed += resp.Exec.Executed
	}
	fresh, recycled := reg.Counter("harness.worlds.fresh").Value(), reg.Counter("harness.worlds.recycled").Value()
	if fresh != 1 || recycled != int64(executed-1) {
		t.Errorf("%d worlds built and %d rebound their state over %d measurements; want 1 and %d", fresh, recycled, executed, executed-1)
	}
}

// TestConcurrentColdRequestsOfOneConfiguration: at MeasureWorkers 2 two
// requests of one configuration measure at once through one factory. A
// world that mixed built and rebound ranks would leave a set-up exchange
// unmatched and fail or hang; both answer, and state was built for at
// most the two worlds that can run at once.
func TestConcurrentColdRequestsOfOneConfiguration(t *testing.T) {
	ts, reg := measuringServer(t, 2)
	var wg sync.WaitGroup
	executed := make([]int, 2)
	for i, chains := range []string{"2", "3"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/predict?bench=BT&grid=6&trips=1&procs=4&blocks=2&chains=" + chains)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var pr PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("chains=%s: status %d, %v", chains, resp.StatusCode, err)
				return
			}
			executed[i] = pr.Exec.Executed
		}()
	}
	wg.Wait()
	fresh, recycled := reg.Counter("harness.worlds.fresh").Value(), reg.Counter("harness.worlds.recycled").Value()
	if fresh < 1 || fresh > 2 {
		t.Errorf("%d worlds built their state, want 1 or 2", fresh)
	}
	if total := int64(executed[0] + executed[1]); fresh+recycled != total {
		t.Errorf("%d built + %d rebound worlds, want the %d measurements executed", fresh, recycled, total)
	}
}
