package serve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
)

// fleetNode is one in-process cluster member: its own registry, cluster
// view and HTTP listener, sharing a cache directory with its peers.
type fleetNode struct {
	addr string
	reg  *obs.Registry
	cl   *cluster.Cluster
	srv  *Server
	ts   *httptest.Server
}

// startFleet brings up n kcserved-shaped nodes on real listeners (the
// peer list must be known before construction, so listeners come first)
// over the given shared cache directory. mutate, when non-nil, adjusts
// each node's configs before construction.
func startFleet(t *testing.T, n int, cacheDir string, mutate func(i int, cc *cluster.Config, sc *Config)) []*fleetNode {
	t.Helper()
	fleet := newFleet(t, n, cacheDir, mutate)
	for _, fn := range fleet {
		fn.ts.Start()
	}
	return fleet
}

// newFleet is startFleet without the start: each node is built and its
// listener bound, but nothing is served until its ts.Start, so a test
// can replace a server's hooks first.
func newFleet(t *testing.T, n int, cacheDir string, mutate func(i int, cc *cluster.Config, sc *Config)) []*fleetNode {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fleet := make([]*fleetNode, n)
	for i := range fleet {
		cache, err := plan.NewDirCache(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		cc := cluster.Config{
			Self:            addrs[i],
			Peers:           addrs,
			BreakerFailures: 1,
			BreakerCooldown: time.Hour, // a dead peer stays dead for the whole test
			Metrics:         reg,
		}
		sc := Config{Cache: cache, Metrics: reg, Measure: true}
		if mutate != nil {
			mutate(i, &cc, &sc)
		}
		cl, err := cluster.New(cc)
		if err != nil {
			t.Fatal(err)
		}
		sc.Cluster = cl
		srv, err := New(sc)
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{Listener: lns[i], Config: &http.Server{Handler: srv.Handler()}}
		fleet[i] = &fleetNode{addr: addrs[i], reg: reg, cl: cl, srv: srv, ts: ts}
	}
	t.Cleanup(func() {
		for _, fn := range fleet {
			fn.ts.Close()
		}
	})
	return fleet
}

// ownerIndex returns which fleet node owns the key, per node i's view.
func ownerIndex(t *testing.T, fleet []*fleetNode, i int, key string) int {
	t.Helper()
	owner, _ := fleet[i].cl.Owner(key)
	for j, fn := range fleet {
		if fn.addr == owner {
			return j
		}
	}
	t.Fatalf("owner %q not in fleet", owner)
	return -1
}

// TestClusterViewsAgree: every node was started with the same peer list,
// so all of them must compute the same owner for every key — the
// property that lets each node route independently, and that keeps
// assignments stable across a full-fleet restart (ownership is a pure
// function of the member set and the key).
func TestClusterViewsAgree(t *testing.T) {
	fleet := startFleet(t, 3, t.TempDir(), nil)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("BT.S.p4 g%d t2 b2 x1 c2", i)
		want := ownerIndex(t, fleet, 0, key)
		for node := 1; node < len(fleet); node++ {
			if got := ownerIndex(t, fleet, node, key); got != want {
				t.Fatalf("key %q: node 0 says owner %d, node %d says %d", key, want, node, got)
			}
		}
	}
}

// TestClusterProxiesToOwner: a request landing on a non-owner is served
// through the owner's fill endpoint, and the proxied body is
// byte-identical to the owner's own answer — clients cannot tell which
// node they hit.
func TestClusterProxiesToOwner(t *testing.T) {
	fleet := startFleet(t, 2, warmedDir(t), nil)
	key := warmQuery(t).Key()
	owner := ownerIndex(t, fleet, 0, key)
	other := 1 - owner

	fromOwner := get(t, fleet[owner].ts.URL, "/predict?"+warmQS, http.StatusOK)
	fromOther := get(t, fleet[other].ts.URL, "/predict?"+warmQS, http.StatusOK)
	if !bytes.Equal(fromOwner, fromOther) {
		t.Errorf("proxied body differs from owner's:\nowner: %s\nproxy: %s", fromOwner, fromOther)
	}
	if got := fleet[other].reg.Counter("cluster.proxied").Value(); got != 1 {
		t.Errorf("non-owner cluster.proxied = %d, want 1", got)
	}
	if got := fleet[owner].reg.Counter("cluster.fill.served").Value(); got != 1 {
		t.Errorf("owner cluster.fill.served = %d, want 1", got)
	}
	if got := fleet[owner].reg.Counter("cluster.proxied").Value(); got != 0 {
		t.Errorf("owner proxied its own key %d times", got)
	}
}

// TestClusterExactlyOnceMeasurement is the tentpole's core promise: a
// cold key queried concurrently through every node of the fleet is
// measured exactly once cluster-wide — non-owners proxy to the owner,
// and the owner's singleflight collapses the rest.
func TestClusterExactlyOnceMeasurement(t *testing.T) {
	fleet := startFleet(t, 3, t.TempDir(), nil)
	const coldQS = "bench=BT&class=S&procs=4&chains=2&trips=2&blocks=1&passes=1&grid=6"

	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for round := 0; round < 3; round++ {
		for _, fn := range fleet {
			wg.Add(1)
			go func(base string) {
				defer wg.Done()
				resp, err := http.Get(base + "/predict?" + coldQS)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}(fn.ts.URL)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var measured int64
	for _, fn := range fleet {
		measured += fn.reg.Counter("serve.measure.ondemand").Value()
	}
	if measured != 1 {
		t.Errorf("fleet measured the cold key %d times, want exactly 1", measured)
	}
}

// TestClusterProxiedFlightAnnotations: concurrent requests for one
// foreign-owned key collapse onto one fetch from the owner, and their
// traces say so as a local flight's do: exactly one leader, and
// followers that name it.
func TestClusterProxiedFlightAnnotations(t *testing.T) {
	recs := make([]*obs.FlightRecorder, 2)
	fleet := newFleet(t, 2, warmedDir(t), func(i int, cc *cluster.Config, sc *Config) {
		recs[i] = obs.NewFlightRecorder(64, 8)
		sc.Tracer = obs.NewRequestTracer(obs.TracerConfig{Recorder: recs[i]})
	})
	key := warmQuery(t).Key()
	owner := ownerIndex(t, fleet, 0, key)
	other := fleet[1-owner]
	// The owner's fill stalls in its analysis until every request has
	// joined the proxy flight.
	inner := fleet[owner].srv.analyze
	entered, release := make(chan struct{}), make(chan struct{})
	fleet[owner].srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		close(entered)
		<-release
		return inner(ctx, q)
	}
	for _, fn := range fleet {
		fn.ts.Start()
	}

	const n = 5
	var wg sync.WaitGroup
	ask := func() {
		defer wg.Done()
		resp, err := http.Get(other.ts.URL + "/predict?" + warmQS)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("proxied /predict = %d", resp.StatusCode)
		}
	}
	wg.Add(1)
	go ask()
	<-entered
	for i := 1; i < n; i++ {
		wg.Add(1)
		go ask()
	}
	for other.srv.sf.Waiters("peer|"+key) < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	var leaders []string
	leaderOf := map[string]string{}
	for _, td := range recs[1-owner].Snapshot().Slowest {
		switch attr(td, "singleflight") {
		case "leader":
			leaders = append(leaders, td.ID)
		case "follower":
			leaderOf[td.ID] = attr(td, "singleflight_leader")
		default:
			t.Errorf("proxied trace %s has no singleflight role", td.ID)
		}
	}
	if len(leaders) != 1 || len(leaderOf) != n-1 {
		t.Fatalf("leaders %v and %d followers, want one leader and %d followers", leaders, len(leaderOf), n-1)
	}
	for id, leader := range leaderOf {
		if leader != leaders[0] {
			t.Errorf("follower %s names leader %q, want %q", id, leader, leaders[0])
		}
	}
}

// TestClusterAbandonedFillNamesItsOwner: a guarded request whose budget
// runs out while the owner's fill is stalled answers 504, and its trace's
// peer.fill span still names the owner it was fetching from, as every
// other peer.fill span does.
func TestClusterAbandonedFillNamesItsOwner(t *testing.T) {
	recs := make([]*obs.FlightRecorder, 2)
	fleet := newFleet(t, 2, warmedDir(t), func(i int, cc *cluster.Config, sc *Config) {
		sc.Guard = guard.New(guard.Config{Deadline: 40 * time.Millisecond})
		recs[i] = obs.NewFlightRecorder(8, 8)
		sc.Tracer = obs.NewRequestTracer(obs.TracerConfig{Recorder: recs[i]})
	})
	key := warmQuery(t).Key()
	owner := ownerIndex(t, fleet, 0, key)
	other := fleet[1-owner]
	// The owner's fill stalls past the requester's budget.
	inner := fleet[owner].srv.analyze
	release := make(chan struct{})
	fleet[owner].srv.analyze = func(ctx context.Context, q Query) (predict.Prediction, error) {
		<-release
		return inner(ctx, q)
	}
	for _, fn := range fleet {
		fn.ts.Start()
	}
	get(t, other.ts.URL, "/predict?"+warmQS, http.StatusGatewayTimeout)
	close(release)

	// The abandoned trace is finished once the detached fill lands.
	var errored []obs.TraceDump
	for deadline := time.Now().Add(10 * time.Second); len(errored) == 0 && time.Now().Before(deadline); {
		errored = recs[1-owner].Snapshot().Errored
		time.Sleep(time.Millisecond)
	}
	if len(errored) != 1 {
		t.Fatalf("%d errored traces on the requester, want the abandoned one", len(errored))
	}
	var fill *obs.SpanDump
	var walk func(sp *obs.SpanDump)
	walk = func(sp *obs.SpanDump) {
		if sp.Name == "peer.fill" {
			fill = sp
		}
		for i := range sp.Children {
			walk(&sp.Children[i])
		}
	}
	walk(&errored[0].Root)
	if fill == nil {
		t.Fatalf("abandoned trace has no peer.fill span: %+v", errored[0].Root)
	}
	if want := fleet[owner].addr + " abandoned"; fill.Detail != want {
		t.Errorf("abandoned peer.fill detail = %q, want %q", fill.Detail, want)
	}
}

// TestClusterHopGuard: a request already carrying the hop header must
// resolve locally even on a non-owner — the one-hop forwarding loop
// guard that makes disagreeing ring views safe.
func TestClusterHopGuard(t *testing.T) {
	fleet := startFleet(t, 2, warmedDir(t), nil)
	key := warmQuery(t).Key()
	other := 1 - ownerIndex(t, fleet, 0, key)

	req, err := http.NewRequest(http.MethodGet, fleet[other].ts.URL+"/predict?"+warmQS, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HopHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hopped request status %d", resp.StatusCode)
	}
	if got := fleet[other].reg.Counter("cluster.proxied").Value(); got != 0 {
		t.Errorf("hopped request was re-proxied %d times — forwarding loops possible", got)
	}
	if got := fleet[other].reg.Counter("cluster.hop.local").Value(); got != 1 {
		t.Errorf("cluster.hop.local = %d, want 1", got)
	}
}

// TestClusterReplicatesHotKeys: a foreign-owned key hammered at one node
// crosses the replication threshold, after which that node answers from
// its local replica instead of re-proxying every request. The replica
// lives in the node's one answer store, so the counts must not depend on
// whether a guard's degradation ladder shares it; with replication off,
// the ladder's copy of a proxied answer must never stand in for a fetch.
func TestClusterReplicatesHotKeys(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
		guarded   bool
		// Requests 1 and 2 proxy (the second stores the replica), and 3
		// and 4 must be replica-served; with replication off all 4 proxy.
		wantFills int64
	}{
		{"unguarded", 2, false, 2},
		{"guarded", 2, true, 2},
		{"off", -1, false, 4},
		{"off-guarded", -1, true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := startFleet(t, 2, warmedDir(t), func(i int, cc *cluster.Config, sc *Config) {
				cc.HotThreshold = tc.threshold
				if tc.guarded {
					sc.Guard = guard.New(guard.Config{StaleCap: 64})
				}
			})
			key := warmQuery(t).Key()
			owner := ownerIndex(t, fleet, 0, key)
			other := 1 - owner

			first := get(t, fleet[other].ts.URL, "/predict?"+warmQS, http.StatusOK)
			for i := 1; i < 4; i++ {
				if body := get(t, fleet[other].ts.URL, "/predict?"+warmQS, http.StatusOK); !bytes.Equal(body, first) {
					t.Fatalf("request %d body differs from the first:\n%s\nwant:\n%s", i+1, body, first)
				}
			}
			r := fleet[other].reg
			stored, hits := r.Counter("cluster.replica.stored").Value(), r.Counter("cluster.replica.hits").Value()
			switch {
			case tc.threshold < 0:
				if stored != 0 || hits != 0 {
					t.Errorf("replication off: stored=%d hits=%d, want 0 and 0", stored, hits)
				}
			case stored < 1:
				t.Fatalf("hot key never replicated (stored=%d)", stored)
			case hits < 1:
				t.Errorf("replica never served (hits=%d)", hits)
			}
			if got := fleet[owner].reg.Counter("cluster.fill.served").Value(); got != tc.wantFills {
				t.Errorf("owner served %d fills, want %d", got, tc.wantFills)
			}
		})
	}
}

// TestClusterSurvivesNodeKill: killing one node mid-run must not cost a
// single warm-key request — the first fetch failure opens the dead
// peer's breaker and falls back to local resolution, and every later
// request rehashes to a survivor. Every node can answer every key from
// the shared cache; the ring only concentrates where work lands.
func TestClusterSurvivesNodeKill(t *testing.T) {
	fleet := startFleet(t, 3, warmedDir(t), nil)
	key := warmQuery(t).Key()
	owner := ownerIndex(t, fleet, 0, key)
	requester := (owner + 1) % 3

	// Healthy: the requester proxies to the owner.
	get(t, fleet[requester].ts.URL, "/predict?"+warmQS, http.StatusOK)
	if got := fleet[requester].reg.Counter("cluster.proxied").Value(); got != 1 {
		t.Fatalf("healthy proxy count %d, want 1", got)
	}

	// Kill the owner mid-run.
	fleet[owner].ts.Close()

	for i := 0; i < 5; i++ {
		resp, err := http.Get(fleet[requester].ts.URL + "/predict?" + warmQS)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("request %d after node kill: status %d — a dead peer cost a warm answer", i, resp.StatusCode)
		}
	}
	r := fleet[requester].reg
	if got := r.Counter("cluster.fill.fallback").Value(); got < 1 {
		t.Errorf("no fallback recorded after killing the owner (fallback=%d)", got)
	}
	if got := r.Counter("cluster.rehash").Value(); got < 1 {
		t.Errorf("ownership never rehashed off the dead peer (rehash=%d)", got)
	}
	// The dead peer's breaker is open on the requester, so later requests
	// route straight to a survivor (or self) without touching it.
	if b := fleet[requester].cl.Breaker(fleet[owner].addr); b.State().String() != "open" {
		t.Errorf("dead peer's breaker is %v, want open", b.State())
	}
}

// warmedDir exposes the shared warmed cache directory for fleet tests
// (warmedCache builds it on first use).
func warmedDir(t *testing.T) string {
	t.Helper()
	warmedCache(t) // ensure warmed
	if !strings.Contains(warmDir, "serve-warm-cache-") {
		t.Fatalf("unexpected warm dir %q", warmDir)
	}
	return warmDir
}
