package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/singleflight"
)

// peerHopKey marks a request context as having already crossed one peer
// hop: resolution must stay local, never proxy again.
type peerHopKey struct{}

func withPeerHop(ctx context.Context) context.Context {
	return context.WithValue(ctx, peerHopKey{}, true)
}

func peerHopFrom(ctx context.Context) bool {
	hop, _ := ctx.Value(peerHopKey{}).(bool)
	return hop
}

// resolvePeer answers a foreign-owned query through the cluster: replica
// first (a hot key answered from local memory), then a singleflight-
// collapsed fetch from the owner, falling back to local resolution when
// the fetch fails for any reason — the ring concentrates work, it never
// gates answers.
//
// Proxy flights share the local singleflight group under a "peer|"
// prefix, a distinct identity from local-resolve flights on the same
// key. The prefix is load-bearing: the fill handler resolves under the
// bare key, so if an inbound fill and an outbound proxy for the same key
// ever coexist on one node (disagreeing ring views), they collapse into
// different flights instead of the fill waiting on the proxy that is
// waiting on the peer that sent the fill.
func (s *Server) resolvePeer(ctx context.Context, q Query, key, owner string) (predict.Prediction, error) {
	tr := obs.TraceFrom(ctx)
	if pr, ok := s.cluster.Replica(key); ok {
		tr.Annotate("cluster", "replica")
		return pr, nil
	}
	// Count the request toward the key's heat before fetching, so the
	// threshold-crossing request is the one that stores the replica.
	hot := s.cluster.NoteRequest(key)
	sp, sfctx := obs.StartSpan(ctx, "peer.fill", owner)
	rawQuery := q.Encode()
	fn := func(fl *singleflight.Flight) (predict.Prediction, error) {
		if tr != nil {
			fl.SetToken(tr.ID)
		}
		// Same detachment contract as local flights: followers piled onto
		// this fetch must survive the leader's requester giving up.
		dctx, dcancel := s.guard.Detach(sfctx)
		defer dcancel()
		pr, token, err := s.cluster.Fetch(dctx, owner, rawQuery)
		if err != nil {
			return predict.Prediction{}, err
		}
		if token != "" {
			// The owner-side flight token: which request over there did
			// the work this whole node waited on.
			obs.TraceFrom(sfctx).Annotate("peer_flight", token)
		}
		return pr, nil
	}
	var pr predict.Prediction
	var err error
	var shared bool
	var fl *singleflight.Flight
	if _, hasDeadline := ctx.Deadline(); hasDeadline {
		ch := s.sf.DoFlightCh("peer|"+key, fn)
		select {
		case res := <-ch:
			pr, err, shared, fl = res.Val, res.Err, res.Shared, res.Flight
		case <-ctx.Done():
			if fin, ok := ctx.Value(finishCtxKey{}).(*deferredFinish); ok {
				fin.wait = ch
			}
			tr.Annotate("singleflight", "abandoned")
			sp.SetDetail("abandoned")
			sp.End()
			return predict.Prediction{}, budgetErr(ctx, ctx.Err())
		}
	} else {
		pr, err, shared, fl = s.sf.DoFlight("peer|"+key, fn)
	}
	if shared {
		s.reg.Counter("serve.singleflight.shared").Inc()
		tr.Annotate("singleflight", "follower")
		if leader, ok := fl.Token().(string); ok {
			tr.Annotate("singleflight_leader", leader)
		}
	}
	sp.End()
	if err != nil {
		// Any fetch failure — open breaker, transport, owner-side error —
		// degrades to resolving here: every node can answer every query,
		// the cluster only concentrates where the work usually lands.
		s.reg.Counter("cluster.fill.fallback").Inc()
		tr.Annotate("cluster", "fallback-local")
		lpr, _, lerr := s.resolveLocal(ctx, q, key)
		return lpr, lerr
	}
	s.reg.Counter("cluster.proxied").Inc()
	tr.Annotate("cluster", "proxied")
	if hot {
		s.cluster.Replicate(key, pr)
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
	ctx := r.Context()
	sp, _ := obs.StartSpan(ctx, "parse", "")
	q, err := ParseQuery(r.URL.Query())
	if err != nil {
		sp.End()
		return statusError{http.StatusBadRequest, err}
	}
	key := q.Key()
	sp.SetDetail(key)
	sp.End()
	pr, token, err := s.resolveLocal(ctx, q, key)
	if err != nil {
		return err
	}
	if token != "" {
		w.Header().Set(cluster.FlightTokenHeader, token)
	}
	s.reg.Counter("cluster.fill.served").Inc()
	return writeJSON(w, http.StatusOK, cluster.FillResponse{Key: key, Prediction: pr})
}
