package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/timing"
)

// Peer-protocol constants, shared by the fill client here and the fill
// handler in internal/serve.
const (
	// FillPath is the peer-internal endpoint a non-owner fetches an
	// owner's answer from. It speaks FillResponse, not the public
	// /predict body, so the non-owner renders the response itself and a
	// proxied answer stays byte-identical to a locally resolved one.
	FillPath = "/internal/fill"
	// HopHeader marks a request that already crossed one peer hop. It is
	// the forwarding loop guard: any request carrying it resolves
	// locally, never proxies again — so even two nodes with disagreeing
	// ring views (a misconfigured peer list) cannot bounce a query
	// between each other.
	HopHeader = "X-Peer-Hop"
	// FlightTokenHeader carries the owner-side singleflight leader's
	// trace ID back to the filling peer, extending flight attribution
	// across the cluster: a follower on node A can name the request on
	// node B that actually did the work.
	FlightTokenHeader = "X-Flight-Token"
)

// FillResponse is the peer-fill wire format: the resolved prediction for
// one plan key. Both sides are the same binary (static fleet), so the
// encoding is the prediction struct itself; the key confirms the peer
// answered the question that was asked.
type FillResponse struct {
	Key        string             `json:"key"`
	Prediction predict.Prediction `json:"prediction"`
}

// StatusError is a fill that reached the owner but came back non-200:
// the peer is alive (transport worked), the answer just is not there —
// a cold 404, a client-error 400, an owner-side 5xx. Only 5xx count
// against the peer's breaker.
type StatusError struct {
	Status int
	Body   string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cluster: peer fill status %d: %s", e.Status, strings.TrimSpace(e.Body))
}

// Config assembles a Cluster.
type Config struct {
	// Self is this node's own entry in Peers — the address peers reach
	// it at, e.g. "127.0.0.1:8640". Required, and must appear in Peers.
	Self string
	// Peers is the full static member list, self included. Order is
	// irrelevant (the ring sorts); every node must be started with the
	// same set or ring views disagree (the hop guard keeps even that
	// misconfiguration from looping).
	Peers []string

	// HotThreshold is how many requests for one foreign-owned key this
	// node must see within hotWindow before NoteRequest calls the key hot
	// and the serving layer keeps its answer as a local replica (default
	// 8; negative disables replication).
	HotThreshold int

	// FillTimeout bounds one peer-fill round trip, including any
	// on-demand measurement the owner runs under it (default 30s).
	FillTimeout time.Duration

	// BreakerFailures/BreakerCooldown configure the per-peer circuit
	// breakers (defaults 3 failures, 2s cooldown). An open breaker takes
	// the peer out of the ownership walk: its keys rehash to the
	// survivors until a probe closes it.
	BreakerFailures int
	BreakerCooldown time.Duration

	// Seed drives breaker cooldown jitter.
	Seed uint64
	// Clock is the time source (WallClock when nil).
	Clock timing.Clock
	// Metrics receives the cluster counters; nil discards them.
	Metrics *obs.Registry
	// Inject, when non-nil, perturbs peer fetches for chaos drills
	// (peerdelay/peererr clauses).
	Inject *fault.ServeInjector
}

// Cluster is one node's view of the peer-filling fleet: the shared ring,
// this node's identity, per-peer breakers and the hot-key tracker. The
// replicas themselves live in the serving layer's answer store. All
// methods are safe for concurrent use.
type Cluster struct {
	self     string
	ring     *Ring
	client   *http.Client
	breakers map[string]*guard.Breaker
	hot      *hotTracker
	inject   *fault.ServeInjector

	fillsSent  *obs.Counter
	fillErrors *obs.Counter
	rehashed   *obs.Counter
}

// New builds a Cluster. Self must be one of Peers.
func New(cfg Config) (*Cluster, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	ring, err := NewRing(cfg.Peers, 0)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	clock := cfg.Clock
	if clock == nil {
		clock = timing.WallClock
	}
	fillTimeout := cfg.FillTimeout
	if fillTimeout <= 0 {
		fillTimeout = 30 * time.Second
	}
	hotThreshold := cfg.HotThreshold
	switch {
	case hotThreshold == 0:
		hotThreshold = 8
	case hotThreshold < 0:
		hotThreshold = 0 // disables the tracker
	}
	brkFailures := cfg.BreakerFailures
	if brkFailures <= 0 {
		brkFailures = 3
	}
	brkCooldown := cfg.BreakerCooldown
	if brkCooldown <= 0 {
		brkCooldown = 2 * time.Second
	}
	c := &Cluster{
		self:     cfg.Self,
		ring:     ring,
		inject:   cfg.Inject,
		client:   &http.Client{Timeout: fillTimeout},
		breakers: make(map[string]*guard.Breaker, len(ring.Nodes())),
		hot:      newHotTracker(hotThreshold, clock),

		fillsSent:  reg.Counter("cluster.fill.sent"),
		fillErrors: reg.Counter("cluster.fill.errors"),
		rehashed:   reg.Counter("cluster.rehash"),
	}
	for _, n := range ring.Nodes() {
		if n == cfg.Self {
			continue
		}
		c.breakers[n] = guard.NewBreaker(guard.BreakerConfig{
			Name:     "peer_" + metricSafe(n),
			Failures: brkFailures,
			Cooldown: brkCooldown,
			Seed:     cfg.Seed,
			Clock:    clock,
			Metrics:  cfg.Metrics, // per-peer breaker metrics only when asked for
		})
	}
	reg.Gauge("cluster.peers").Set(int64(len(ring.Nodes())))
	return c, nil
}

// metricSafe rewrites an address into a metric-name-safe label.
func metricSafe(addr string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ':', '/', '.':
			return '_'
		}
		return r
	}, addr)
}

// Nodes returns the fleet's sorted member list.
func (c *Cluster) Nodes() []string { return c.ring.Nodes() }

// Owner resolves the key's current owner, skipping peers whose breaker
// is open (their keys rehash to the next survivor on the circle; self is
// always considered alive). self reports whether this node is that
// owner and should resolve locally.
//
//kcvet:hotpath one ring walk per clustered /predict request
func (c *Cluster) Owner(key string) (node string, self bool) {
	home := c.ring.Owner(key)
	if home == c.self {
		return home, true
	}
	if b := c.breakers[home]; b != nil && b.State() == guard.StateOpen {
		node = c.ring.OwnerAvoiding(key, c.alive)
		if node != home {
			c.rehashed.Inc()
		}
		return node, node == c.self
	}
	return home, false
}

// alive is the ownership-walk predicate: self always, peers while their
// breaker is not open.
func (c *Cluster) alive(node string) bool {
	if node == c.self {
		return true
	}
	b := c.breakers[node]
	return b == nil || b.State() != guard.StateOpen
}

// Fetch asks owner for the key's answer over the peer-fill protocol and
// returns the decoded prediction plus the owner-side flight token (the
// owner's singleflight leader trace ID, "" when untraced). Transport
// failures and owner-side 5xx count against the peer's breaker; 4xx do
// not (the peer is alive, the answer just is not servable). The caller
// decides what an error means — typically: fall back to resolving
// locally.
func (c *Cluster) Fetch(ctx context.Context, owner, rawQuery string) (predict.Prediction, string, error) {
	var tk guard.Ticket
	if b := c.breakers[owner]; b != nil {
		var err error
		if tk, err = b.Allow(); err != nil {
			c.fillErrors.Inc()
			return predict.Prediction{}, "", fmt.Errorf("cluster: peer %s: %w", owner, err)
		}
	}
	c.fillsSent.Inc()
	if d := c.inject.PeerDelay(); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			tk.Done(ctx.Err())
			c.fillErrors.Inc()
			return predict.Prediction{}, "", ctx.Err()
		}
	}
	if err := c.inject.PeerErr(); err != nil {
		tk.Done(err)
		c.fillErrors.Inc()
		return predict.Prediction{}, "", err
	}
	base := owner
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(base, "/")+FillPath+"?"+rawQuery, nil)
	if err != nil {
		tk.Done(err)
		c.fillErrors.Inc()
		return predict.Prediction{}, "", err
	}
	req.Header.Set(HopHeader, "1")
	resp, err := c.client.Do(req)
	if err != nil {
		tk.Done(err)
		c.fillErrors.Inc()
		return predict.Prediction{}, "", fmt.Errorf("cluster: fill from %s: %w", owner, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		serr := &StatusError{Status: resp.StatusCode, Body: string(body)}
		if resp.StatusCode >= 500 {
			tk.Done(serr)
		} else {
			tk.Done(nil)
		}
		c.fillErrors.Inc()
		return predict.Prediction{}, "", serr
	}
	var fr FillResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		tk.Done(err)
		c.fillErrors.Inc()
		return predict.Prediction{}, "", fmt.Errorf("cluster: fill from %s: decode: %w", owner, err)
	}
	tk.Done(nil)
	return fr.Prediction, resp.Header.Get(FlightTokenHeader), nil
}

// NoteRequest records one request for a foreign-owned key and reports
// whether the key has crossed the replication threshold in the current
// window — the caller should keep the answer it is about to fetch as a
// replica.
func (c *Cluster) NoteRequest(key string) (hot bool) {
	return c.hot.note(key)
}

// Breaker returns the breaker guarding one peer (nil for self or an
// unknown node) — an observation hook for tests and drills.
func (c *Cluster) Breaker(node string) *guard.Breaker { return c.breakers[node] }
