package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/tables"
)

// This file binds the predict package's backend interface to the
// server's guarded resolution paths: tables.NewBackend builds every
// backend, and the measured and cached ones run through runMeasured and
// runCached — the breaker, semaphore and retry-budget machinery the
// server always used — so putting a chain in front of them changes
// routing, not behavior: a warm cached answer is produced by exactly the
// code (and allocations) that produced it before backends existed.

// buildChains constructs the default chain and one single-backend chain
// per selectable pin, every backend built by tables.NewBackend over
// s.substrate. Called once from New; the warm path only looks up.
func (s *Server) buildChains(names []string) error {
	if len(names) == 0 {
		names = []string{string(predict.ProvCached)}
		if s.measure {
			names = append(names, string(predict.ProvMeasured))
		}
	}
	s.chains = make(map[string]*predict.Chain, len(names)+3)
	def := make([]predict.Predictor, 0, len(names))
	for _, raw := range names {
		n := strings.ToLower(strings.TrimSpace(raw))
		if n == string(predict.ProvMeasured) && !s.measure {
			return fmt.Errorf("serve: backend %q requires on-demand measurement (-measure)", n)
		}
		b, err := tables.NewBackend(n, s.substrate)
		if err != nil {
			return err
		}
		def = append(def, b)
		if _, dup := s.chains[n]; dup {
			return fmt.Errorf("serve: backend %q listed twice", n)
		}
		s.chains[n] = predict.NewChain(s.reg, b)
	}
	// Pins beyond the default chain's members: every backend that cannot
	// be abused to burn CPU is selectable even when the default chain
	// omits it. Measured stays gated on Config.Measure.
	extra := []string{string(predict.ProvCached), string(predict.ProvInterpolated), string(predict.ProvAnalytic)}
	if s.measure {
		extra = append(extra, string(predict.ProvMeasured))
	}
	for _, n := range extra {
		if _, ok := s.chains[n]; ok {
			continue
		}
		b, err := tables.NewBackend(n, s.substrate)
		if err != nil {
			return err
		}
		s.chains[n] = predict.NewChain(s.reg, b)
	}
	s.chains[""] = predict.NewChain(s.reg, def...)
	return nil
}

// backendNames returns the selectable pins, sorted, for error messages.
func (s *Server) backendNames() []string {
	names := make([]string, 0, len(s.chains))
	for n := range s.chains {
		if n != "" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// missError is the no-backend-could-answer outcome: every chained
// backend refused. It renders with the operator hint when measurement is
// off, and wrap gives it the degradation-ladder-consistent JSON shape
// (degraded/provenance/backends_tried) instead of a bare error string.
type missError struct {
	err      error
	backends []string
	hint     string
}

func (e *missError) Error() string { return e.err.Error() + e.hint }

func (e *missError) Unwrap() error { return e.err }

// runQuery resolves one query through its chain: the default chain, or
// the single backend the query pinned with ?backend=. A chain-wide
// refusal maps to 404 — the same "warm the cache first" contract the
// pre-backend server had — while a terminal backend failure keeps its
// own status.
func (s *Server) runQuery(ctx context.Context, q Query) (predict.Prediction, error) {
	ch := s.chains[q.Backend]
	if ch == nil {
		return predict.Prediction{}, statusError{http.StatusBadRequest,
			fmt.Errorf("unknown backend %q (have %s)", q.Backend, strings.Join(s.backendNames(), ", "))}
	}
	pr, err := ch.Predict(ctx, q.PredictQuery())
	if err != nil {
		if errors.Is(err, predict.ErrUnanswerable) {
			miss := &missError{err: err, backends: ch.Backends()}
			if !s.measure {
				miss.hint = " (measurement is disabled; warm the cache with couple, or start kcserved with -measure)"
			}
			return predict.Prediction{}, statusError{http.StatusNotFound, miss}
		}
		return predict.Prediction{}, err
	}
	return pr, nil
}

// runCached is the cached backend's StudyFn: pure re-analysis of the
// warmed cache through the guarded disk-read path. A miss stays a
// harness.ErrCacheMiss (the backend turns it into a refusal); any other
// failure is a malformed study and maps to a client error.
func (s *Server) runCached(ctx context.Context, q predict.Query) (*harness.Study, error) {
	tr := obs.TraceFrom(ctx)
	eng, err := s.engineFor(q)
	if err != nil {
		return nil, err
	}
	st, err := eng.RunFromCacheCtx(ctx, q.Trips, q.Chains)
	if err == nil {
		tr.Annotate("cache", "hit")
		return st, nil
	}
	if !errors.Is(err, harness.ErrCacheMiss) {
		// Planning or analysis failed — a malformed study (chain longer
		// than the loop, say), not a cold cache.
		return nil, statusError{http.StatusBadRequest, err}
	}
	tr.Annotate("cache", "miss")
	return nil, err
}

// runMeasured is the measured backend's StudyFn: on-demand measurement,
// bounded by the measure pool, breaker-guarded and retry-budgeted.
// Engine.RunCtx still consults the cache per job, so a partially warm
// study only measures what is actually missing, and persists every fresh
// result for the next query. The queue wait gets its own span — a
// saturated measure pool must read as queueing, not as slow worlds.
func (s *Server) runMeasured(ctx context.Context, q predict.Query) (*harness.Study, error) {
	eng, err := s.engineFor(q)
	if err != nil {
		return nil, err
	}
	qsp := obs.SpanFrom(ctx).StartChild("measure.queue", "")
	s.measureSem <- struct{}{}
	qsp.End()
	defer func() { <-s.measureSem }()
	s.reg.Counter("serve.measure.ondemand").Inc()
	obs.TraceFrom(ctx).Annotate("measured", "ondemand")
	st, err := s.measureOnce(ctx, eng, q)
	// RetryBudget.Spend on nil says yes: an unguarded server never
	// retries, so the nil check stays explicit.
	if err != nil && s.retry != nil && !errors.Is(err, guard.ErrBreakerOpen) &&
		s.retry.Spend() {
		// One guarded retry, the only one: the failure may have been an
		// injected or transient fault, and the token bucket bounds how
		// much retrying the fleet does in aggregate. The rerun measures
		// only the jobs that failed — the rest are in the cache — and the
		// engine retries no job on its own. A breaker fast-fail is never
		// retried — the breaker's whole point is to stop hammering.
		s.reg.Counter("serve.measure.retry").Inc()
		st, err = s.measureOnce(ctx, eng, q)
	}
	if err != nil {
		return nil, fmt.Errorf("on-demand measurement: %w", err)
	}
	return st, nil
}
