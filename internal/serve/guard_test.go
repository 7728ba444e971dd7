package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
)

// TestGuardedWarmPredictByteIdentical: the hardening contract's
// determinism half — a healthy guarded server answers a warm /predict
// with exactly the bytes the unguarded server serves. Deadlines,
// admission and the stale cache must be invisible until something fails.
func TestGuardedWarmPredictByteIdentical(t *testing.T) {
	bare, err := New(Config{Cache: warmedCache(t)})
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(guard.Config{
		Deadline:    5 * time.Second,
		MaxInflight: 4,
		StaleCap:    8,
	})
	hardened, err := New(Config{Cache: warmedCache(t), Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(bare.Handler())
	defer ts1.Close()
	ts2 := httptest.NewServer(hardened.Handler())
	defer ts2.Close()

	b1 := get(t, ts1.URL, "/predict?"+warmQS, http.StatusOK)
	b2 := get(t, ts2.URL, "/predict?"+warmQS, http.StatusOK)
	if !bytes.Equal(b1, b2) {
		t.Errorf("guarded warm /predict differs from unguarded:\n%s\n---\n%s", b1, b2)
	}
	c1 := get(t, ts1.URL, "/couplings?"+warmQS, http.StatusOK)
	c2 := get(t, ts2.URL, "/couplings?"+warmQS, http.StatusOK)
	if !bytes.Equal(c1, c2) {
		t.Error("guarded warm /couplings differs from unguarded")
	}
}

// TestFollowerSurvivesLeaderAbandonment is the leader-cancellation fix's
// regression test: the singleflight leader's own requester runs out of
// deadline budget and answers 504, but the flight is detached and keeps
// working — a follower without a deadline still gets the real answer.
// Before the fix the leader's context died with its caller and every
// follower inherited the failure.
func TestFollowerSurvivesLeaderAbandonment(t *testing.T) {
	reg := obs.NewRegistry()
	g := guard.New(guard.Config{
		DeadlineFor: map[string]time.Duration{"predict": 40 * time.Millisecond},
	})
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.analyze
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
			// An undetached leader dies here with its caller's budget —
			// exactly the failure mode the detach exists to prevent.
			return predict.Prediction{}, ctx.Err()
		}
		return inner(ctx, q)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Leader: /predict under a 40ms budget, stalled in analysis.
	leaderDone := make(chan []byte, 1)
	go func() {
		leaderDone <- get(t, ts.URL, "/predict?"+warmQS, http.StatusGatewayTimeout)
	}()
	<-entered

	// Follower: /couplings (no budget) piles onto the same flight key.
	followerDone := make(chan []byte, 1)
	go func() {
		followerDone <- get(t, ts.URL, "/couplings?"+warmQS, http.StatusOK)
	}()
	key := warmQuery(t).Key()
	for srv.sf.Waiters(key) < 1 {
		time.Sleep(time.Millisecond)
	}

	// The leader's 504 lands while the flight is still stalled, and its
	// body is the deterministic budget rendering — no measured elapsed
	// time leaks into it.
	body := <-leaderDone
	want := "{\n  \"error\": \"guard: deadline budget 40ms exceeded for predict\"\n}\n"
	if string(body) != want {
		t.Errorf("504 body = %q, want %q", body, want)
	}
	if got := reg.Counter("serve.deadline_exceeded").Value(); got != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", got)
	}

	close(release)
	var cr CouplingsResponse
	if err := json.Unmarshal(<-followerDone, &cr); err != nil {
		t.Fatalf("follower body: %v", err)
	}
	if len(cr.Chains) == 0 {
		t.Error("follower got an empty study from the detached flight")
	}
}

// TestAdmissionShedsWith503AndRetryAfter: with one slot and a one-deep
// queue, a third concurrent request is shed deterministically — 503, a
// Retry-After header, the fixed shed body — and the shed counter moves.
func TestAdmissionShedsWith503AndRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	g := guard.New(guard.Config{MaxInflight: 1, QueueDepth: 1})
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := srv.analyze
	srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		once.Do(func() { close(entered) })
		<-release
		return inner(ctx, q)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan []byte, 1)
	go func() { first <- get(t, ts.URL, "/predict?"+warmQS, http.StatusOK) }()
	<-entered // request 1 holds the only slot, stalled in analysis

	second := make(chan []byte, 1)
	go func() { second <- get(t, ts.URL, "/study?"+warmQS, http.StatusOK) }()
	for g.Admission.Queued() < 1 {
		time.Sleep(time.Millisecond)
	}

	// Queue full: the third request is shed without waiting.
	resp, err := http.Get(ts.URL + "/predict?" + warmQS)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third request = %d, want 503\n%s", resp.StatusCode, body.String())
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 has no Retry-After header")
	}
	if !strings.Contains(body.String(), "guard: request shed (queue full), retry after") {
		t.Errorf("shed body = %q", body.String())
	}
	if got := reg.Counter("serve.shed").Value(); got != 1 {
		t.Errorf("serve.shed = %d, want 1", got)
	}

	close(release)
	<-first
	<-second
	if got := g.Admission.Inflight(); got != 0 {
		t.Errorf("inflight = %d after drain, want 0", got)
	}
}

// TestQueuedRequestAnswers504WhenItsBudgetRunsOut: the queue is a point
// where a request waits, so its budget's deadline fires there too. One
// slot, held by a /predict stalled in analysis under a long budget; a
// /couplings queued behind it with a short budget answers the
// deterministic 504 body without ever being admitted, and no slot leaks.
func TestQueuedRequestAnswers504WhenItsBudgetRunsOut(t *testing.T) {
	reg := obs.NewRegistry()
	g := guard.New(guard.Config{
		MaxInflight: 1,
		QueueDepth:  1,
		DeadlineFor: map[string]time.Duration{"predict": time.Minute, "couplings": 30 * time.Millisecond},
		Metrics:     reg,
	})
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := srv.analyze
	srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		once.Do(func() { close(entered) })
		<-release
		return inner(ctx, q)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := make(chan []byte, 1)
	go func() { first <- get(t, ts.URL, "/predict?"+warmQS, http.StatusOK) }()
	<-entered // the /predict holds the only slot, stalled in analysis

	body := get(t, ts.URL, "/couplings?"+warmQS, http.StatusGatewayTimeout)
	const want = "{\n  \"error\": \"guard: deadline budget 30ms exceeded for couplings\"\n}\n"
	if string(body) != want {
		t.Errorf("queued 504 body = %q, want %q", body, want)
	}
	if got := reg.Counter("guard.admission.waited").Value(); got != 1 {
		t.Errorf("guard.admission.waited = %d, want 1: the /couplings did not queue", got)
	}
	if got := reg.Counter("serve.deadline_exceeded").Value(); got != 1 {
		t.Errorf("serve.deadline_exceeded = %d, want 1", got)
	}

	close(release)
	<-first
	if got := g.Admission.Inflight(); got != 0 {
		t.Errorf("inflight = %d after drain, want 0", got)
	}
	if got := g.Admission.Queued(); got != 0 {
		t.Errorf("queued = %d after drain, want 0", got)
	}
}

// TestMeasureBreakerOpensAndRecovers drives the full circuit cycle
// through the serving layer with injected measurement failures:
// closed → open (failures), fast-fail 503 while open, half-open probe
// after cooldown, closed again on a clean measurement.
func TestMeasureBreakerOpensAndRecovers(t *testing.T) {
	cache, err := plan.NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	g := guard.New(guard.Config{
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		Seed:            1,
		Metrics:         reg,
	})
	spec, err := fault.Parse("measure:count=2")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Cache: cache, Metrics: reg, Measure: true,
		Guard:  g,
		Inject: fault.NewServeInjector(spec, 1, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qs := "bench=BT&grid=6&trips=1&procs=4&chains=2&blocks=2"

	// Request 1: the injected failure burns the first attempt and the
	// budgeted retry; two consecutive failures open the breaker.
	body := get(t, ts.URL, "/predict?"+qs, http.StatusInternalServerError)
	if !strings.Contains(string(body), "injected measurement failure") {
		t.Errorf("first failure body = %s", body)
	}
	if got := g.Measure.State(); got != guard.StateOpen {
		t.Fatalf("breaker state after failures = %v, want open", got)
	}
	if got := reg.Counter("serve.measure.retry").Value(); got != 1 {
		t.Errorf("serve.measure.retry = %d, want 1", got)
	}

	// Request 2, inside the cooldown: fast-failed, no measurement runs.
	body = get(t, ts.URL, "/predict?"+qs, http.StatusServiceUnavailable)
	if !strings.Contains(string(body), "guard: measure breaker open (failing fast)") {
		t.Errorf("fast-fail body = %s", body)
	}
	if got := reg.Counter("guard.breaker.measure.fastfail").Value(); got != 1 {
		t.Errorf("fastfail counter = %d, want 1", got)
	}
	if got := reg.Counter("serve.shed").Value(); got != 1 {
		t.Errorf("serve.shed = %d, want 1 (breaker fast-fail is a shed)", got)
	}

	// After the cooldown (plus jitter headroom) the next request is the
	// half-open probe; the injected burst is exhausted, so the real
	// measurement runs, succeeds, and closes the breaker.
	time.Sleep(120 * time.Millisecond)
	var pr PredictResponse
	if err := json.Unmarshal(get(t, ts.URL, "/predict?"+qs, http.StatusOK), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Exec.Executed == 0 {
		t.Error("recovery probe served without executing anything on a cold cache")
	}
	if got := g.Measure.State(); got != guard.StateClosed {
		t.Errorf("breaker state after recovery = %v, want closed", got)
	}
	if got := reg.Counter("guard.breaker.measure.opened").Value(); got != 1 {
		t.Errorf("opened counter = %d, want 1", got)
	}
	if got := reg.Counter("guard.breaker.measure.closed").Value(); got != 1 {
		t.Errorf("closed counter = %d, want 1", got)
	}
	if got := reg.Counter("breaker.open").Value(); got != 1 {
		t.Errorf("aggregate breaker.open = %d, want 1", got)
	}
}

// TestEmptyTileQueryIsABadRequest: a decomposition that leaves a rank
// fewer planes than its halo (3 points over a 4×4 process grid) is the
// query's fault, not the measurement's. It answers 400 before anything
// runs, so the measure breaker never counts it and the next valid cold
// query is measured.
func TestEmptyTileQueryIsABadRequest(t *testing.T) {
	cache, err := plan.NewDirCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := guard.New(guard.Config{BreakerFailures: 2, BreakerCooldown: time.Minute, Seed: 1})
	srv, err := New(Config{Cache: cache, Measure: true, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, bench := range []string{"BT", "LU", "BT", "LU"} {
		body := get(t, ts.URL, "/predict?bench="+bench+"&grid=3&trips=1&procs=16&chains=2&blocks=2", http.StatusBadRequest)
		if !strings.Contains(string(body), "thinner than the 1-deep halo") {
			t.Errorf("%s body = %s, want the tile rule", bench, body)
		}
		if got := g.Measure.State(); got != guard.StateClosed {
			t.Fatalf("breaker state after a %s bad query = %v, want closed", bench, got)
		}
	}
	var pr PredictResponse
	if err := json.Unmarshal(get(t, ts.URL, "/predict?bench=BT&grid=6&trips=1&procs=4&chains=2&blocks=2", http.StatusOK), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Exec.Executed == 0 {
		t.Error("valid cold query served without executing anything")
	}
}

// TestStaleDegradationLadder: once a healthy answer has been served, a
// service failure degrades to the stale answer (tagged, counted, never
// byte-silent) instead of a 5xx; a family neighbor serves when the exact
// key was never answered; client errors never degrade.
func TestStaleDegradationLadder(t *testing.T) {
	reg := obs.NewRegistry()
	g := guard.New(guard.Config{StaleCap: 8})
	srv, err := New(Config{Cache: warmedCache(t), Metrics: reg, Guard: g})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	fresh := get(t, ts.URL, "/predict?"+warmQS, http.StatusOK)
	var fr PredictResponse
	if err := json.Unmarshal(fresh, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Degraded != "" {
		t.Fatalf("healthy answer tagged degraded %q", fr.Degraded)
	}
	if bytes.Contains(fresh, []byte("degraded")) {
		t.Error("healthy body mentions degradation — byte determinism broken")
	}

	// The service goes dark below the memo that now holds this answer: it
	// restarts over the same directory — a fresh cache, an empty memo —
	// with every disk read and every measurement failing. A failed read
	// alone is a cold miss, and a miss is a 404 that never degrades; the
	// failed measurement behind it is the 5xx. The guard, and with it the
	// stale cache, outlives the restart.
	spec, err := fault.Parse("diskerr:p=1;measure:p=1")
	if err != nil {
		t.Fatal(err)
	}
	dark, err := New(Config{
		Cache: warmedCache(t), Metrics: reg, Guard: g, Measure: true,
		Inject: fault.NewServeInjector(spec, 1, reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(dark.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/predict?" + warmQS)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale fallback = %d, want 200\n%s", resp.StatusCode, body.String())
	}
	if got := resp.Header.Get("X-Degraded"); got != guard.ModeStale {
		t.Errorf("X-Degraded = %q, want %q", got, guard.ModeStale)
	}
	var dr PredictResponse
	if err := json.Unmarshal(body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Degraded != guard.ModeStale {
		t.Errorf("Degraded = %q, want %q", dr.Degraded, guard.ModeStale)
	}
	if dr.ActualSeconds != fr.ActualSeconds {
		t.Error("stale answer's numbers differ from the remembered healthy answer")
	}

	// A family neighbor (same bench/class/procs/grid, different blocks)
	// was never answered exactly; it degrades to the nearby answer.
	nearQS := strings.Replace(warmQS, "blocks=2", "blocks=3", 1)
	resp, err = http.Get(ts.URL + "/predict?" + nearQS)
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nearby fallback = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Degraded"); got != guard.ModeStaleNearby {
		t.Errorf("X-Degraded = %q, want %q", got, guard.ModeStaleNearby)
	}
	if got := reg.Counter("serve.degraded").Value(); got != 2 {
		t.Errorf("serve.degraded = %d, want 2", got)
	}

	// Client errors never degrade: the query is wrong, not the service.
	get(t, ts.URL, "/predict?bench=XX", http.StatusBadRequest)
}

// TestHTTPTimeouts: NewHTTPServer must never hand back a server with
// zero (infinite) socket timeouts — that is the slowloris hole — and
// must honor explicit overrides, including negative-means-disabled.
func TestHTTPTimeouts(t *testing.T) {
	hs := NewHTTPServer("127.0.0.1:0", http.NotFoundHandler(), HTTPTimeouts{})
	if hs.ReadHeaderTimeout != 5*time.Second {
		t.Errorf("default ReadHeaderTimeout = %v, want 5s", hs.ReadHeaderTimeout)
	}
	if hs.ReadTimeout != 30*time.Second {
		t.Errorf("default ReadTimeout = %v, want 30s", hs.ReadTimeout)
	}
	if hs.WriteTimeout != 2*time.Minute || hs.IdleTimeout != 2*time.Minute {
		t.Errorf("default Write/Idle = %v/%v, want 2m/2m", hs.WriteTimeout, hs.IdleTimeout)
	}

	hs = NewHTTPServer("127.0.0.1:0", nil, HTTPTimeouts{
		ReadHeader: 100 * time.Millisecond,
		Read:       time.Second,
		Write:      -1,
		Idle:       3 * time.Second,
	})
	if hs.ReadHeaderTimeout != 100*time.Millisecond || hs.ReadTimeout != time.Second ||
		hs.WriteTimeout != 0 || hs.IdleTimeout != 3*time.Second {
		t.Errorf("overrides not honored: %v %v %v %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
}

// TestSlowlorisConnectionReaped: a client that dribbles headers and
// never finishes the request is disconnected by ReadHeaderTimeout
// instead of pinning a connection forever.
func TestSlowlorisConnectionReaped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := NewHTTPServer("", http.NotFoundHandler(), HTTPTimeouts{ReadHeader: 100 * time.Millisecond})
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then silence: a well-behaved server must hang
	// up on its own once the header budget is spent.
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	// The server may write a 408 before hanging up; what matters is that
	// the connection reaches EOF on the server's initiative well before
	// our own read deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	for {
		_, err := conn.Read(buf)
		if err == nil {
			continue
		}
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("connection still open 5s after the 100ms header budget: slowloris hole")
		}
		break // EOF / reset: the server reaped the connection
	}
}
