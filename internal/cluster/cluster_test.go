package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/timing"
)

func TestNewValidatesSelf(t *testing.T) {
	if _, err := New(Config{Peers: []string{"a:1"}}); err == nil {
		t.Error("missing Self accepted")
	}
	if _, err := New(Config{Self: "b:2", Peers: []string{"a:1"}}); err == nil {
		t.Error("self outside peer list accepted")
	}
	c, err := New(Config{Self: "a:1", Peers: []string{"a:1", "b:2"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes()) != 2 {
		t.Errorf("Nodes=%v", c.Nodes())
	}
	// Self is a:1: the keys a:1 owns resolve locally, and only those.
	local := 0
	for i := 0; i < 32; i++ {
		node, self := c.Owner(fmt.Sprint("k", i))
		if self != (node == "a:1") {
			t.Errorf("Owner(k%d) = %q, self=%v; self is a:1", i, node, self)
		}
		if self {
			local++
		}
	}
	if local == 0 {
		t.Error("no key resolves locally on a:1")
	}
	if c.Breaker("a:1") != nil {
		t.Error("self has a breaker; the ownership walk would let self 'die'")
	}
	if c.Breaker("b:2") == nil {
		t.Error("peer b:2 has no breaker")
	}
}

// TestOwnerRehashesAroundOpenBreaker: when a peer's breaker opens, its
// keys must route to survivors; when it closes again they must come
// home. Keys owned by healthy nodes never move.
func TestOwnerRehashesAroundOpenBreaker(t *testing.T) {
	clock := &timing.FakeClock{}
	c, err := New(Config{
		Self:            "a:1",
		Peers:           []string{"a:1", "b:2", "c:3"},
		BreakerFailures: 1,
		BreakerCooldown: time.Hour,
		Clock:           clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find keys homed on each peer.
	keyOn := map[string]string{}
	for i := 0; len(keyOn) < 3 && i < 10000; i++ {
		k := fmt.Sprintf("key-%d", i)
		home, _ := c.Owner(k)
		if _, ok := keyOn[home]; !ok {
			keyOn[home] = k
		}
	}
	if len(keyOn) < 3 {
		t.Fatal("could not find keys for all members")
	}

	// Trip b's breaker with one failure.
	tk, err := c.Breaker("b:2").Allow()
	if err != nil {
		t.Fatal(err)
	}
	tk.Done(errors.New("peer down"))
	if st := c.Breaker("b:2").State(); st != guard.StateOpen {
		t.Fatalf("breaker state %v after trip, want open", st)
	}

	owner, _ := c.Owner(keyOn["b:2"])
	if owner == "b:2" {
		t.Error("key still routed to a peer with an open breaker")
	}
	if o, _ := c.Owner(keyOn["c:3"]); o != "c:3" {
		t.Errorf("healthy peer's key moved to %q during b's outage", o)
	}
	if o, self := c.Owner(keyOn["a:1"]); o != "a:1" || !self {
		t.Errorf("own key rerouted to %q (self=%v)", o, self)
	}
}

func fillServer(t *testing.T, pr predict.Prediction, hopSeen *bool) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(FillPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HopHeader) != "" && hopSeen != nil {
			*hopSeen = true
		}
		w.Header().Set(FlightTokenHeader, "leader-trace-1")
		fmt.Fprintf(w, `{"key":%q,"prediction":{"Value":%g,"Backend":%q}}`,
			r.URL.RawQuery, pr.Value, pr.Backend)
	})
	return httptest.NewServer(mux)
}

// TestFetchDecodesFill: a successful fill returns the peer's prediction
// and flight token, sends the hop header, and leaves the breaker closed.
func TestFetchDecodesFill(t *testing.T) {
	hopSeen := false
	ts := fillServer(t, predict.Prediction{Value: 42.5, Backend: "measured"}, &hopSeen)
	defer ts.Close()
	peer := strings.TrimPrefix(ts.URL, "http://")

	reg := obs.NewRegistry()
	c, err := New(Config{Self: "self:0", Peers: []string{"self:0", peer}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	pr, token, err := c.Fetch(context.Background(), peer, "bench=BT")
	if err != nil {
		t.Fatal(err)
	}
	if !hopSeen {
		t.Error("fill request carried no hop header — forwarding loops are possible")
	}
	if pr.Value != 42.5 || pr.Backend != "measured" {
		t.Errorf("prediction %+v", pr)
	}
	if token != "leader-trace-1" {
		t.Errorf("flight token %q", token)
	}
	if got := reg.Counter("cluster.fill.sent").Value(); got != 1 {
		t.Errorf("cluster.fill.sent = %d", got)
	}
}

// TestFetchStatusErrors: a 4xx from the owner is an answer-not-there,
// not a peer-health signal — the breaker must stay closed. Transport
// failures must trip it.
func TestFetchStatusErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(FillPath, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no cached study", http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	peer := strings.TrimPrefix(ts.URL, "http://")

	c, err := New(Config{Self: "self:0", Peers: []string{"self:0", peer}, BreakerFailures: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, _, ferr := c.Fetch(context.Background(), peer, "bench=BT")
	var serr *StatusError
	if !errors.As(ferr, &serr) || serr.Status != http.StatusNotFound {
		t.Fatalf("want StatusError 404, got %v", ferr)
	}
	if st := c.Breaker(peer).State(); st != guard.StateClosed {
		t.Errorf("4xx tripped the breaker (state %v); peer was alive", st)
	}

	// Transport failure: server gone.
	ts.Close()
	if _, _, ferr = c.Fetch(context.Background(), peer, "bench=BT"); ferr == nil {
		t.Fatal("fetch from dead peer succeeded")
	}
	if st := c.Breaker(peer).State(); st != guard.StateOpen {
		t.Errorf("transport failure left breaker %v, want open", st)
	}
	// And with the breaker open, the next fetch fails fast.
	if _, _, ferr = c.Fetch(context.Background(), peer, "bench=BT"); !errors.Is(ferr, guard.ErrBreakerOpen) {
		t.Errorf("open-breaker fetch error = %v, want ErrBreakerOpen", ferr)
	}
}

// TestFetchInjectedPeerErr: the peererr chaos clause fails the fetch
// before it leaves the node and counts against the breaker.
func TestFetchInjectedPeerErr(t *testing.T) {
	spec, err := fault.Parse("peererr:count=2")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewServeInjector(spec, 1, nil)
	c, err := New(Config{
		Self: "self:0", Peers: []string{"self:0", "peer:1"},
		BreakerFailures: 2, Inject: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, ferr := c.Fetch(context.Background(), "peer:1", "q"); !errors.Is(ferr, fault.ErrInjectedPeer) {
			t.Fatalf("fetch %d error = %v, want ErrInjectedPeer", i, ferr)
		}
	}
	if st := c.Breaker("peer:1").State(); st != guard.StateOpen {
		t.Errorf("two injected failures left breaker %v, want open", st)
	}
}

// TestHotTrackerWindow: a key crosses the threshold inside one window;
// window expiry resets the count.
func TestHotTrackerWindow(t *testing.T) {
	clock := &timing.FakeClock{}
	h := newHotTracker(3, clock)
	for i := 0; i < 2; i++ {
		if h.note("k") {
			t.Fatalf("hot after %d requests, threshold 3", i+1)
		}
	}
	if !h.note("k") {
		t.Error("not hot at threshold")
	}
	// Jump past the window: count resets.
	clock.T = clock.T.Add(time.Minute)
	if h.note("k") {
		t.Error("still hot in a fresh window")
	}
	var disabled *hotTracker
	if disabled.note("k") {
		t.Error("nil tracker reported hot")
	}
}

// TestNoteRequestWithReplicationDisabled: a negative HotThreshold turns
// the tracker off, so no key is ever hot. (The replica store's LRU bound
// is the serving layer's answer store, guard.TestStaleCacheEviction.)
func TestNoteRequestWithReplicationDisabled(t *testing.T) {
	off, err := New(Config{Self: "a:1", Peers: []string{"a:1", "b:2"}, HotThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if off.NoteRequest("k") {
			t.Fatalf("disabled replication reported a hot key after %d requests", i+1)
		}
	}
}
