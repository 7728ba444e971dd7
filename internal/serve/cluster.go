package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/predict"
)

// replicaCap bounds the answer store of a clustered server without a
// degradation ladder, where the store holds only hot replicas. With the
// ladder on, replicas share the ladder's StaleCap under one LRU.
const replicaCap = 512

// answer is one entry of the server's answer store. Predictions are
// immutable once resolved, so no entry needs a TTL: it leaves when
// capacity pushes it out or the process restarts. replica marks a hot
// foreign-owned answer, the only kind resolvePeer serves in place of a
// fetch.
type answer struct {
	pr      predict.Prediction
	replica bool
}

// resolvePeer answers a foreign-owned query through the cluster: replica
// first (a hot key answered from the answer store by exact key), then a
// singleflight-collapsed fetch from the owner, falling back to local
// resolution when the fetch fails for any reason — the ring concentrates
// work, it never gates answers. replica reports a replica hit, or a
// fetch for a key the heat tracker called hot.
//
// Proxy flights share the local singleflight group under a "peer|"
// prefix, a distinct identity from local-resolve flights on the same
// key. The prefix is load-bearing: the fill handler resolves under the
// bare key, so if an inbound fill and an outbound proxy for the same key
// ever coexist on one node (disagreeing ring views), they collapse into
// different flights instead of the fill waiting on the proxy that is
// waiting on the peer that sent the fill. A request with a budget waits
// for the fill against it (see flight).
func (s *Server) resolvePeer(ctx context.Context, q Query, key, owner string) (pr predict.Prediction, replica bool, err error) {
	tr := obs.TraceFrom(ctx)
	if v, _, ok := s.answers.Get(key, ""); ok {
		if a := v.(answer); a.replica {
			s.replicaHits.Inc()
			tr.Annotate("cluster", "replica")
			return a.pr, true, nil
		}
	}
	// Count the request toward the key's heat before fetching, so the
	// threshold-crossing request is the one that stores the replica.
	hot := s.cluster.NoteRequest(key)
	res, err := s.flight(ctx, "peer.fill", "peer|"+key, q, owner, (*Server).fetchFlight)
	if err != nil {
		return predict.Prediction{}, false, err
	}
	pr, err = res.Val, res.Err
	if err != nil {
		// Any fetch failure — open breaker, transport, owner-side error —
		// degrades to resolving here: every node can answer every query,
		// the cluster only concentrates where the work usually lands.
		s.reg.Counter("cluster.fill.fallback").Inc()
		tr.Annotate("cluster", "fallback-local")
		lpr, _, lerr := s.resolveLocal(ctx, q, key)
		return lpr, false, lerr
	}
	s.reg.Counter("cluster.proxied").Inc()
	tr.Annotate("cluster", "proxied")
	if hot {
		s.replicaStored.Inc()
	}
	return pr, hot, nil
}

// fetchFlight is a peer flight's work: fetch the query from its owner.
func (s *Server) fetchFlight(ctx context.Context, q Query, owner string) (predict.Prediction, error) {
	pr, token, err := s.cluster.Fetch(ctx, owner, q.Encode())
	if err != nil {
		return predict.Prediction{}, err
	}
	if token != "" {
		// The owner-side flight token: which request over there did the
		// work this whole node waited on.
		obs.TraceFrom(ctx).Annotate("peer_flight", token)
	}
	return pr, nil
}

// handleFill serves the peer-internal fill endpoint: resolve the query
// strictly locally and return the raw prediction plus this node's flight
// token, so the asking peer can both render the response itself and
// attribute the work. The hop header is required — a fill is only ever
// sent by a peer, and requiring the marker keeps external clients off
// the internal surface.
func (s *Server) handleFill(w http.ResponseWriter, r *http.Request) error {
	if s.cluster == nil {
		return statusError{http.StatusNotFound,
			errors.New("clustering is not enabled (start kcserved with -peers/-self)")}
	}
	if r.Header.Get(cluster.HopHeader) == "" {
		return statusError{http.StatusBadRequest,
			errors.New(cluster.FillPath + " is peer-internal (missing " + cluster.HopHeader + " header)")}
	}
	q, key, err := parseRequest(r)
	if err != nil {
		return err
	}
	pr, token, err := s.resolveLocal(r.Context(), q, key)
	if err != nil {
		return err
	}
	if token != "" {
		w.Header().Set(cluster.FlightTokenHeader, token)
	}
	s.reg.Counter("cluster.fill.served").Inc()
	return writeJSON(w, http.StatusOK, cluster.FillResponse{Key: key, Prediction: pr})
}
