// Package serve is the query layer over a warmed measurement cache: a
// long-running HTTP service that answers coupling-prediction questions
// without re-running worlds. Every endpoint resolves its query through
// the pure analysis tail of the harness (plan → cache → analyze), so a
// warm cache answers in microseconds and byte-identically at any
// concurrency; identical in-flight queries collapse onto one analysis
// via singleflight. With on-demand measurement enabled, a cache miss
// falls back to running the study through a bounded worker pool and the
// fresh results are persisted for every later query.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/singleflight"
	"repro/internal/tables"
)

// Config configures a Server.
type Config struct {
	// Cache is the measurement cache queries are answered from. Required.
	// A disk-backed cache (plan.NewDirCache) is what makes the service
	// useful across restarts — it serves the campaigns couple warmed.
	Cache *plan.Cache
	// Metrics receives the service's counters, gauges and latency
	// histograms (and the harness's cache hit/miss counters). A private
	// registry is created when nil; /metrics snapshots whichever is used.
	Metrics *obs.Registry
	// Net attaches the IBM SP interconnect cost model to on-demand
	// measurements and, through the world digest, selects the
	// net-modeled cache namespace. It must match the warming campaign's
	// -net flag or every query misses.
	Net bool
	// Measure allows a cache miss to fall back to measuring on demand.
	// Off by default: a pure query service cannot be made to burn CPU by
	// an unwarmed query.
	Measure bool
	// MeasureWorkers bounds how many on-demand studies may run worlds
	// concurrently (minimum and default 1). Queries beyond the bound
	// queue; cache-served queries are never throttled.
	MeasureWorkers int
	// Tracer, when non-nil, gives every request a trace ID and a
	// hierarchical span tree that follows the query through singleflight,
	// the cache and (for on-demand measurement) the executor. Nil disables
	// tracing at nil-check cost — the warm path stays allocation-free.
	Tracer *obs.RequestTracer
	// AccessLog, when non-nil, receives one JSON line per completed
	// request (trace ID, endpoint, status, duration, cache outcome,
	// singleflight role). Writes are serialized by the server; the writer
	// itself need not be concurrency-safe.
	AccessLog io.Writer
	// Guard, when non-nil, hardens the query endpoints against overload
	// and dependency failure: per-request deadline budgets (504),
	// bounded-concurrency admission with deadline-aware queue shedding
	// (503 + Retry-After), circuit breakers around on-demand measurement
	// and cache disk reads, a token-bucket retry budget, and a
	// stale-answer degradation ladder. Nil serves unguarded — the
	// pre-hardening behavior, byte for byte.
	Guard *guard.Guard
	// Inject, when non-nil, perturbs the serving layer for chaos drills:
	// slow or failing cache disk reads, failing on-demand measurements,
	// added handler latency. Injection never corrupts a measured value —
	// it fails operations or delays them — so the measurement cache stays
	// clean and warm healthy answers stay byte-identical.
	Inject *fault.ServeInjector
	// Backends names the default predictor chain, tried in order; each
	// must be one of measured, cached, interpolated, analytic (measured
	// requires Measure). Empty means cached, then measured when Measure
	// is on — the pre-backend behavior, byte for byte.
	Backends []string
	// Lattice seeds the interpolated backend with neighboring
	// configurations whose cached studies anchor its step models.
	Lattice []predict.Query
	// Cluster, when non-nil, makes this server one node of a peer-filling
	// fleet: queries whose plan key hashes to another node are proxied to
	// that owner over the peer-fill protocol (and locally replicated when
	// hot), so each key's singleflight collapse — and any on-demand
	// measurement — happens on exactly one node fleet-wide. Nil serves
	// standalone, byte for byte the single-node behavior.
	Cluster *cluster.Cluster
}

// Server answers prediction queries over HTTP. Create one with New and
// mount Handler on an http.Server.
type Server struct {
	cache      *plan.Cache
	reg        *obs.Registry
	measure    bool
	measureSem chan struct{}
	sf         singleflight.Group[string, predict.Prediction]
	tracer     *obs.RequestTracer
	guard      *guard.Guard
	inject     *fault.ServeInjector
	routes     []route
	version    VersionResponse

	// The guard's parts, nil without a guard: every method they feed is
	// nil-safe.
	diskBrk, measureBrk *guard.Breaker
	retry               *guard.RetryBudget

	// answers is the server's one in-memory store of answers, each an
	// answer: the guard's stale cache when the degradation ladder is on
	// (ladder), else a replicaCap-entry store on a clustered server, else
	// nil. With the ladder on it keeps every healthy answer; off, only
	// hot replicas.
	answers *guard.StaleCache
	ladder  bool

	logMu     sync.Mutex
	accessLog io.Writer

	// cluster is the peer-filling fleet view (nil standalone), and the
	// replica counters are resolved with it.
	cluster                    *cluster.Cluster
	replicaHits, replicaStored *obs.Counter

	// substrate is what every backend and engine is built over: the
	// cache, net model and registry, with the measured and cached study
	// functions routed through this server's guarded paths.
	substrate tables.BackendConfig

	// chains maps a backend pin ("measured", "analytic", ...) to its
	// single-backend chain; the "" entry is the server's default chain.
	// Built once at construction — the warm path only does a map lookup.
	chains map[string]*predict.Chain

	// analyses counts flights: resolutions that went through singleflight
	// because no answer could be given without waiting.
	analyses *obs.Counter

	// analyze resolves one query to a prediction; overridable in tests
	// to observe or stall resolution. The context carries the request
	// trace.
	analyze func(ctx context.Context, q Query) (predict.Prediction, error)
}

// route is one endpoint as Handler mounts it, wrap meters it and
// publishWindows walks it.
type route struct {
	pattern, name   string
	traced, guarded bool
	handle          func(http.ResponseWriter, *http.Request) error
	window          *obs.WindowHistogram
}

// New builds a Server over the given cache.
func New(cfg Config) (*Server, error) {
	if cfg.Cache == nil {
		return nil, errors.New("serve: Config.Cache is required")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	workers := cfg.MeasureWorkers
	if workers < 1 {
		workers = 1
	}
	s := &Server{
		cache:      cfg.Cache,
		reg:        reg,
		measure:    cfg.Measure,
		measureSem: make(chan struct{}, workers),
		tracer:     cfg.Tracer,
		guard:      cfg.Guard,
		inject:     cfg.Inject,
		cluster:    cfg.Cluster,
		analyses:   reg.Counter("serve.analysis.count"),
		version:    buildVersion(),
		accessLog:  cfg.AccessLog,
	}
	if g := cfg.Guard; g != nil {
		s.diskBrk, s.measureBrk, s.retry, s.answers = g.Disk, g.Measure, g.Retry, g.Stale
	}
	s.ladder = s.answers != nil
	if s.cluster != nil {
		if s.answers == nil {
			s.answers = guard.NewStaleCache(replicaCap)
		}
		s.replicaHits = reg.Counter("cluster.replica.hits")
		s.replicaStored = reg.Counter("cluster.replica.stored")
	}
	// Listed in name order, the order /metrics lists their gauges in.
	// Only the query endpoints are guarded: under overload the admission
	// controller sheds prediction work, while /healthz, /metrics and
	// /version stay answerable — an operator diagnosing a brownout must
	// not be shed by it.
	s.routes = []route{
		{pattern: "GET /couplings", name: "couplings", traced: true, guarded: true, handle: s.handleCouplings},
		// The dump endpoint is metered but never traced: a /debug/requests
		// request must not insert itself into the flight recorder it is
		// reading, or repeated dumps would perturb what they report.
		{pattern: "GET /debug/requests", name: "debug", handle: s.handleDebugRequests},
		// The peer-fill endpoint is traced and metered but unguarded:
		// admission and deadline budgets were already spent at the edge node
		// that accepted the public request, and shedding here would double-
		// charge a query the fleet has already admitted once.
		{pattern: "GET " + cluster.FillPath, name: "fill", traced: true, handle: s.handleFill},
		{pattern: "GET /healthz", name: "healthz", traced: true, handle: s.handleHealthz},
		{pattern: "GET /metrics", name: "metrics", traced: true, handle: s.handleMetrics},
		{pattern: "GET /predict", name: "predict", traced: true, guarded: true, handle: s.handlePredict},
		{pattern: "GET /study", name: "study", traced: true, guarded: true, handle: s.handleStudy},
		{pattern: "GET /version", name: "version", traced: true, handle: s.handleVersion},
	}
	for i := range s.routes {
		s.routes[i].window = obs.NewWindowHistogram(0)
	}
	// Pooled: the rank state on-demand measurements build is the server's,
	// bounded, and outlives the request that built it.
	s.substrate = tables.BackendConfig{
		Cache: cfg.Cache, Metrics: reg, Lattice: cfg.Lattice,
		Run: s.runMeasured, RunFromCache: s.runCached,
	}.Pooled()
	if cfg.Net {
		m := mpi.IBMSPModel()
		s.substrate.Net = &m
	}
	if err := s.buildChains(cfg.Backends); err != nil {
		return nil, err
	}
	s.analyze = s.runQuery
	if s.guard != nil || s.inject != nil {
		// Chain fault injection and the disk breaker in front of the
		// cache's cold reads. Installed here, before the cache is served
		// from, because SetReadGuard is read unsynchronized on the hot
		// path. A failing or fast-failed read is a cache miss — never a
		// wrong result.
		s.cache.SetReadGuard(s.guardCacheRead)
	}
	return s, nil
}

// guardCacheRead is the guard around the cache's disk lookups: injected
// latency first (a slow disk is slow before it answers), then the disk
// breaker's verdict, then injected failure, then the real read. A key the
// log has no record of is a normal cold miss and never counts against the
// breaker — only I/O failures (real or injected) do.
func (s *Server) guardCacheRead(read func() error) error {
	if d := s.inject.DiskDelay(); d > 0 {
		time.Sleep(d)
	}
	tk, err := s.diskBrk.Allow()
	if err != nil {
		return err
	}
	if err := s.inject.DiskErr(); err != nil {
		tk.Done(err)
		return err
	}
	err = read()
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		tk.Done(err)
		return err
	}
	tk.Done(nil)
	return err
}

// statusError carries the HTTP status a handler error maps to.
type statusError struct {
	code int
	err  error
}

func (e statusError) Error() string { return e.err.Error() }
func (e statusError) Unwrap() error { return e.err }

// engineFor builds the measurement engine for a query from the canonical
// binding (tables.BackendConfig.Engine) — the whole cache-compatibility
// contract: a couple campaign and a kcserved query with the same
// parameters produce the same job keys.
func (s *Server) engineFor(q predict.Query) (harness.Engine, error) {
	eng, err := s.substrate.Engine(q)
	if err != nil {
		return harness.Engine{}, statusError{http.StatusBadRequest, err}
	}
	return eng, nil
}

// measureOnce is one breaker-guarded on-demand measurement attempt:
// breaker verdict, injected measurement failure, then the real study.
// Every outcome — injected or real — is reported to the breaker, so
// consecutive chaos failures open it and a clean probe closes it.
func (s *Server) measureOnce(ctx context.Context, eng harness.Engine, q predict.Query) (*harness.Study, error) {
	tk, err := s.measureBrk.Allow()
	if err != nil {
		return nil, err
	}
	msp, mctx := obs.StartSpan(ctx, "measure.ondemand", q.Key())
	if tk.Probe() {
		// A half-open probe is load-bearing for recovery; make it visible
		// in the trace tree and on the trace itself.
		psp := obs.SpanFrom(mctx).StartChild("breaker.probe", "measure")
		psp.End()
		obs.TraceFrom(ctx).Annotate("breaker.probe", "measure")
	}
	var st *harness.Study
	if err = s.inject.MeasureErr(); err == nil {
		st, err = eng.RunCtx(mctx, q.Trips, q.Chains)
	}
	msp.End()
	tk.Done(err)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// resolve answers a query: in a cluster, by routing it to the key's
// owner (resolvePeer) unless this node is the owner or the request
// already crossed a peer hop (hopped); standalone (or as owner), by
// resolving locally. The hop check is the forwarding loop guard — a query
// never travels more than one hop, whatever the peers' ring views claim.
// replica reports a hot foreign-owned answer, which the caller stores as
// a replica.
func (s *Server) resolve(ctx context.Context, q Query, key string, hopped bool) (pr predict.Prediction, replica bool, err error) {
	if s.cluster != nil && !hopped {
		if owner, self := s.cluster.Owner(key); !self {
			return s.resolvePeer(ctx, q, key, owner)
		}
	}
	pr, _, err = s.resolveLocal(ctx, q, key)
	return pr, false, err
}

// resolveLocal answers a query locally. An answer the first backend of
// the query's chain can give without I/O, measurement or waiting — a
// memoised study, the analytic model (predict.Chain.Peek) — is given on
// the request's own goroutine: the flight is for work that can block.
//
// Every other query flies: N identical in-flight queries cost one
// analysis (or one on-demand measurement). The leader's trace ID is
// returned so the fill endpoint can hand it to a filling peer.
//
// key is q.Key(): the request's entry point builds it once and every
// layer below shares it.
func (s *Server) resolveLocal(ctx context.Context, q Query, key string) (predict.Prediction, string, error) {
	if ch := s.chains[q.Backend]; ch != nil {
		if pr, ok := ch.Peek(ctx, q.PredictQuery()); ok {
			if pr.Provenance == predict.ProvCached {
				obs.TraceFrom(ctx).Annotate("cache", "hit")
			}
			return pr, "", nil
		}
	}
	res, err := s.flight(ctx, "singleflight", key, q, "", (*Server).analyzeFlight)
	if err != nil {
		return predict.Prediction{}, "", err
	}
	token, _ := res.Flight.Token().(string)
	return res.Val, token, res.Err
}

// analyzeFlight is a local flight's work: one counted analysis.
func (s *Server) analyzeFlight(ctx context.Context, q Query, _ string) (predict.Prediction, error) {
	s.analyses.Inc()
	return s.analyze(ctx, q)
}

// flight runs work(q, owner) as key's singleflight flight, in a span
// named name whose detail is the owner a peer fill fetches from, and
// waits for its result. Local resolution (owner "") and peer fetches both
// fly here, so their traces read alike: leader or follower, and a
// follower names the leader, whose trace ID rides the flight token. The
// work is a method expression, so a flight builds one closure. The work
// runs detached from the requesting caller's cancellation: followers
// piled onto a flight must survive the leader's own requester giving up,
// so the leader runs on the guard's leader budget instead of any one
// caller's.
//
// A request with a budget waits in a select against the budget's
// deadline, armed here, and answers deterministically the moment the
// budget runs out: the flight keeps going for whoever is still waiting,
// and its channel is left on the budget so wrap finishes this request's
// trace only once the flight lands, because the detached work keeps
// writing spans into it. Without a deadline there is nothing to wait
// against, so the flight runs synchronously on this goroutine.
func (s *Server) flight(ctx context.Context, name, key string, q Query, owner string,
	work func(*Server, context.Context, Query, string) (predict.Prediction, error)) (singleflight.FlightResult[predict.Prediction], error) {
	tr := obs.TraceFrom(ctx)
	sp, sfctx := obs.StartSpan(ctx, name, owner)
	body := func(fl *singleflight.Flight) (pr predict.Prediction, err error) {
		defer recoverPanic(&err)
		if tr != nil {
			fl.SetToken(tr.ID)
		}
		dctx, dcancel := s.guard.Detach(sfctx)
		defer dcancel()
		return work(s, dctx, q, owner)
	}
	ctx, cancel := arm(ctx)
	defer cancel()
	var res singleflight.FlightResult[predict.Prediction]
	if _, hasDeadline := ctx.Deadline(); !hasDeadline {
		res.Val, res.Err, res.Shared, res.Flight = s.sf.DoFlight(key, body)
	} else {
		ch := s.sf.DoFlightCh(key, body)
		select {
		case res = <-ch:
		case <-ctx.Done():
			if b := budgetFrom(ctx); b != nil {
				b.wait = ch
			}
			tr.Annotate("singleflight", "abandoned")
			if owner == "" {
				sp.SetDetail("abandoned")
			} else { // a peer fill's span keeps naming the owner
				sp.SetDetail(owner + " abandoned")
			}
			sp.End()
			return res, budgetErr(ctx, ctx.Err())
		}
	}
	if res.Shared {
		s.reg.Counter("serve.singleflight.shared").Inc()
		tr.Annotate("singleflight", "follower")
		if leader, ok := res.Flight.Token().(string); ok {
			tr.Annotate("singleflight_leader", leader)
			if owner == "" { // a peer fill's span keeps naming the owner
				sp.SetDetail("waited on " + leader)
			}
		}
	} else {
		tr.Annotate("singleflight", "leader")
	}
	sp.End()
	return res, nil
}

// recoverPanic, deferred first in a flight body and around every
// handler, turns a panic into the error the caller returns: the request —
// and, in a flight, every follower — answers the same 500, with or
// without a guard, and the server goes on serving. Under a guard a
// flight body runs on DoFlightCh's goroutine, where a panic that got past
// it would end the process; on the request's own goroutine net/http
// would drop the connection, and an admitted request would keep its
// admission slot.
func recoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("serve: panic while resolving the query: %v", r)
	}
}

// Handler returns the service's HTTP mux: every route, wrapped.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes {
		mux.Handle(rt.pattern, s.wrap(rt))
	}
	return mux
}

// statusClientClosed is the non-standard status for a request whose
// client went away before the answer (nginx's 499 convention) — distinct
// from 504 so abandonment and budget expiry are separable in metrics.
const statusClientClosed = 499

// statusOf maps a handler error to its HTTP status. Statuses >= 500 are
// the degradation ladder's trigger: service failures may fall back to a
// stale answer, client mistakes (4xx) never do.
func statusOf(err error) int {
	var se statusError
	var shed *guard.ShedError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &se):
		return se.code
	case errors.As(err, &shed):
		return http.StatusServiceUnavailable
	case errors.Is(err, guard.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosed
	default:
		return http.StatusInternalServerError
	}
}

// budget is a guarded request's deadline budget: which endpoint, how
// long, and the deadline that fixes — entry time plus budget, taken after
// any injected handler delay. It rides the request context as one value,
// so layers that only see a dead context can still render the
// deterministic deadline body. No timer stands behind it until the
// request reaches a point where it can wait (arm): a request answered at
// once never builds one.
type budget struct {
	endpoint string
	budget   time.Duration
	deadline time.Time
	// wait is the flight this request stopped waiting for when its
	// budget ran out. Set and read on the handler goroutine only: while
	// it is non-nil the detached flight is still writing spans into the
	// request's trace, so wrap must not finish (snapshot into the flight
	// recorder) the trace until the flight lands.
	wait <-chan singleflight.FlightResult[predict.Prediction]
}

type budgetCtxKey struct{}

// withBudget returns ctx carrying the guard's budget for a request to
// endpoint, starting now, or ctx and nil when the guard sets none.
//
//kcvet:hotpath every guarded request starts its budget here
func (s *Server) withBudget(ctx context.Context, endpoint string) (context.Context, *budget) {
	d := s.guard.Budget()
	if d <= 0 {
		return ctx, nil
	}
	b := &budget{endpoint: endpoint, budget: d, deadline: time.Now().Add(d)}
	return context.WithValue(ctx, budgetCtxKey{}, b), b
}

func budgetFrom(ctx context.Context) *budget {
	b, _ := ctx.Value(budgetCtxKey{}).(*budget)
	return b
}

// arm bounds ctx by its request's budget deadline, for a point where the
// request can wait: queued for admission, waiting on a flight. Without a
// budget ctx comes back as it is.
//
//kcvet:hotpath a guarded request that waits arms its deadline here, once per wait
func arm(ctx context.Context) (context.Context, context.CancelFunc) {
	b := budgetFrom(ctx)
	if b == nil {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, b.deadline)
}

// budgetErr upgrades a context error into the deterministic guard error
// for the request's configured budget; errors that are not context
// expiry (shed, breaker) pass through unchanged.
func budgetErr(ctx context.Context, err error) error {
	if b := budgetFrom(ctx); b != nil && errors.Is(err, context.DeadlineExceeded) {
		return &guard.DeadlineError{Endpoint: b.endpoint, Budget: b.budget}
	}
	return err
}

// wrap gives every endpoint the same observability: request and error
// counters, cumulative and sliding-window latency histograms, the shared
// in-flight gauge, and — when the server has a tracer and traced is true
// — a request trace whose ID is echoed in the X-Trace-Id header and whose
// span tree is installed in the request context for every layer below.
//
// Guarded endpoints additionally pass through the overload hardening:
// injected handler latency (chaos), the endpoint's deadline budget, and
// the admission controller. Shed requests answer 503 with Retry-After,
// spent budgets answer 504; both bodies are deterministic. A panic in a
// handler answers 500 (see callHandler).
func (s *Server) wrap(rt route) http.Handler {
	// The endpoint's instruments are resolved here, once: a request must
	// not concatenate metric names or take the registry's mutex.
	inflight := s.reg.Gauge("serve.inflight")
	count := s.reg.Counter("serve.req." + rt.name + ".count")
	errCount := s.reg.Counter("serve.req." + rt.name + ".errors")
	latency := s.reg.Histogram("serve.req." + rt.name + ".latency_ns")
	var adm *guard.Admission
	if rt.guarded && s.guard != nil {
		adm = s.guard.Admission
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inflight.Add(1)
		defer inflight.Add(-1)
		count.Inc()
		var tr *obs.Trace
		if rt.traced {
			tr = s.tracer.Start(rt.name) // nil tracer → nil trace, all hooks no-op
		}
		// "setup" covers what happens to a request before its handler
		// runs — installing the trace, injected latency, the deadline
		// budget — so a trace has no unexplained time ahead of "parse".
		setup := tr.Root().StartChild("setup", "")
		ctx := r.Context()
		if tr != nil {
			w.Header().Set("X-Trace-Id", tr.ID)
			ctx = obs.ContextWithTrace(ctx, tr)
		}
		var b *budget
		if rt.guarded {
			// Handler latency injection hits only guarded endpoints, so
			// /healthz stays a stable liveness signal during chaos.
			if d := s.inject.HandlerDelay(); d > 0 {
				time.Sleep(d)
			}
			ctx, b = s.withBudget(ctx, rt.name)
			s.retry.OnRequest()
		}
		if tr != nil || b != nil {
			r = r.WithContext(ctx)
		}
		setup.End()
		start := time.Now()
		err := s.callHandler(adm, rt.handle, w, r)
		dur := time.Since(start)
		status := http.StatusOK
		var errMsg string
		if err != nil {
			errCount.Inc()
			status = statusOf(err)
			var shed *guard.ShedError
			if errors.As(err, &shed) {
				w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfter))
			}
			switch status {
			case http.StatusServiceUnavailable:
				s.reg.Counter("serve.shed").Inc()
			case http.StatusGatewayTimeout:
				s.reg.Counter("serve.deadline_exceeded").Inc()
			}
			errMsg = err.Error()
			writeJSON(w, status, errorBody(err, errMsg))
		}
		if tr != nil && b != nil && b.wait != nil {
			// A detached flight is still writing spans into this trace;
			// finish (and record) it only once the flight lands, so the
			// flight recorder never snapshots a trace mid-write and the
			// abandoned request's full span tree survives for debugging.
			wait, st, em := b.wait, status, errMsg
			go func() {
				<-wait
				s.tracer.Finish(tr, st, em)
			}()
		} else {
			s.tracer.Finish(tr, status, errMsg)
		}
		// The trace is closed before wrap's own bookkeeping, which is not
		// the request's to account for.
		latency.Observe(dur.Nanoseconds())
		rt.window.Observe(dur.Nanoseconds())
		s.logAccess(rt.name, tr, status, dur, errMsg)
	})
}

// callHandler calls h, admitted first when adm is non-nil, and answers a
// panic anywhere in it as recoverPanic does. A free slot is taken at
// once; only a request that must queue arms its budget's deadline. The
// slot is released however h ends, panic included.
func (s *Server) callHandler(adm *guard.Admission, h func(http.ResponseWriter, *http.Request) error, w http.ResponseWriter, r *http.Request) (err error) {
	defer recoverPanic(&err)
	if adm != nil {
		ctx := r.Context()
		qsp := obs.SpanFrom(ctx).StartChild("guard.queue", "")
		if !adm.TryAcquire() {
			wctx, cancel := arm(ctx)
			err = adm.Acquire(wctx)
			cancel()
		}
		qsp.End()
		if err != nil {
			err = budgetErr(ctx, err)
			ssp := obs.SpanFrom(ctx).StartChild("guard.shed", err.Error())
			ssp.End()
			return err
		}
		// The EWMA behind deadline-aware shedding wants pure service
		// time, so the release measures from grant — wrap's latency
		// histogram still sees the queue wait.
		granted := time.Now()
		defer func() { adm.Release(time.Since(granted)) }()
	}
	return h(w, r)
}

// accessRecord is one access-log line. Fields are fixed-order JSON so the
// log is greppable and machine-parseable without a schema.
type accessRecord struct {
	Trace        string `json:"trace,omitempty"`
	Endpoint     string `json:"endpoint"`
	Status       int    `json:"status"`
	DurNs        int64  `json:"dur_ns"`
	Cache        string `json:"cache,omitempty"`
	Singleflight string `json:"singleflight,omitempty"`
	Error        string `json:"error,omitempty"`
}

// logAccess emits one JSON line per completed request. Serialization
// under logMu keeps concurrent requests' lines whole.
func (s *Server) logAccess(name string, tr *obs.Trace, status int, dur time.Duration, errMsg string) {
	if s.accessLog == nil {
		return
	}
	rec := accessRecord{Endpoint: name, Status: status, DurNs: dur.Nanoseconds(), Error: errMsg}
	if tr != nil {
		rec.Trace = tr.ID
		rec.Cache, _ = tr.Attr("cache")
		rec.Singleflight, _ = tr.Attr("singleflight")
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.logMu.Lock()
	s.accessLog.Write(b)
	s.logMu.Unlock()
}

type errorResponse struct {
	Error string `json:"error"`
	// Degraded, Provenance and BackendsTried give a no-answer miss the
	// same shape vocabulary as degraded successes: degraded "none"
	// (nothing stale could stand in), provenance "miss", and the chain
	// that was tried. Omitted on every other error, so pre-backend error
	// bodies keep their bytes.
	Degraded      string   `json:"degraded,omitempty"`
	Provenance    string   `json:"provenance,omitempty"`
	BackendsTried []string `json:"backends_tried,omitempty"`
}

// errorBody shapes one error response. A chain-wide miss gets the
// degradation-ladder-consistent fields; everything else stays a bare
// error string.
func errorBody(err error, errMsg string) errorResponse {
	var miss *missError
	if errors.As(err, &miss) {
		return errorResponse{
			Error:         errMsg,
			Degraded:      "none",
			Provenance:    "miss",
			BackendsTried: miss.backends,
		}
	}
	return errorResponse{Error: errMsg}
}

// jsonWriter is a reusable render target: an encoder that indents like
// json.MarshalIndent(v, "", "  ") and escapes HTML like it, writing into
// buf. The encoder's own indent scratch is reused with it.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := new(jsonWriter)
	jw.enc = json.NewEncoder(&jw.buf)
	jw.enc.SetIndent("", "  ")
	return jw
}}

// maxPooledJSON bounds the buffer a jsonWriter may keep between renders:
// a large debug or metrics dump is rendered once and dropped, so the
// pool does not pin it.
const maxPooledJSON = 64 << 10

// writeJSON writes v indented with a trailing newline — the bytes of
// json.MarshalIndent(v, "", "  ") and "\n" — from a pooled encoder, so a
// render leaves no buffer behind. Responses are built from ordered slices
// (never bare maps), so for a given cache state a query's body is
// byte-identical across requests, restarts and concurrency levels.
//
//kcvet:hotpath every warm /predict answer is rendered here
func writeJSON(w http.ResponseWriter, code int, v any) error {
	jw := jsonWriters.Get().(*jsonWriter)
	defer func() {
		if jw.buf.Cap() <= maxPooledJSON {
			jw.buf.Reset()
			jsonWriters.Put(jw)
		}
	}()
	if err := jw.enc.Encode(v); err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, err := w.Write(jw.buf.Bytes())
	return err
}

// Predictor is one predictor's outcome in a /predict response.
type Predictor struct {
	// Label names the predictor, e.g. "Summation" or "Coupling: 3 kernels".
	Label string `json:"label"`
	// ChainLen is the window length for coupling predictors, 0 for the
	// summation baseline.
	ChainLen int `json:"chain_len,omitempty"`
	// Seconds is the predicted application execution time.
	Seconds float64 `json:"seconds"`
	// RelativeError is |predicted-actual|/actual.
	RelativeError float64 `json:"relative_error"`
}

// PredictResponse is the /predict body: the measured time and every
// predictor, summation first then coupling predictors by chain length.
type PredictResponse struct {
	Workload      string            `json:"workload"`
	Trips         int               `json:"trips"`
	ActualSeconds float64           `json:"actual_seconds"`
	Predictors    []Predictor       `json:"predictors"`
	Exec          harness.ExecStats `json:"exec"`
	// Degraded is empty for fresh answers; "stale" or "stale-nearby" when
	// the service was unhealthy and an old answer was served instead of a
	// 5xx. Omitted when empty so healthy bodies stay byte-identical.
	Degraded string `json:"degraded,omitempty"`
	// Backend and Provenance identify a model-based answer (the backend
	// that produced it, and its provenance class), Confidence bounds it,
	// and WindowBands carries its per-window coupling bands. All four
	// are set only for interpolated and analytic answers — measured and
	// cached bodies keep their pre-backend bytes (the X-Backend header
	// carries the routing for those).
	Backend     string               `json:"backend,omitempty"`
	Provenance  string               `json:"provenance,omitempty"`
	Confidence  *predict.Band        `json:"confidence,omitempty"`
	WindowBands []predict.WindowBand `json:"window_bands,omitempty"`
}

// synthetic reports whether a prediction was produced by a model rather
// than measurement — the provenances whose answers carry bands in the
// body.
func synthetic(pr predict.Prediction) bool {
	return pr.Provenance == predict.ProvInterpolated || pr.Provenance == predict.ProvAnalytic
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) error {
	return s.respond(w, r, renderPredict)
}

// renderPredict is the /predict body, the service's main warm path: a
// cached query must not allocate per predictor, so the slice is sized
// once and filled by index.
//
//kcvet:hotpath /predict on a warm cache is the serving benchmark's measured path
func renderPredict(w http.ResponseWriter, pr predict.Prediction, degraded string) error {
	st := pr.Study
	lens := st.ChainLens()
	preds := make([]Predictor, len(lens)+1)
	preds[0] = Predictor{
		Label:         st.Summation.Label,
		Seconds:       st.Summation.Predicted,
		RelativeError: st.Summation.RelErr,
	}
	for i, L := range lens {
		p := st.Couplings[L]
		preds[i+1] = Predictor{
			Label: p.Label, ChainLen: p.ChainLen,
			Seconds: p.Predicted, RelativeError: p.RelErr,
		}
	}
	resp := PredictResponse{
		Workload:      st.Workload,
		Trips:         st.Trips,
		ActualSeconds: st.Actual,
		Exec:          st.Exec,
		Predictors:    preds,
		Degraded:      degraded,
	}
	if synthetic(pr) {
		resp.Backend = pr.Backend
		resp.Provenance = string(pr.Provenance)
		resp.Confidence = &predict.Band{Lo: pr.Band.Lo, Hi: pr.Band.Hi}
		resp.WindowBands = pr.Windows
	}
	return writeJSON(w, http.StatusOK, resp)
}

// KernelCoefficient is one loop kernel's composition coefficient.
type KernelCoefficient struct {
	Kernel string  `json:"kernel"`
	Alpha  float64 `json:"alpha"`
}

// WindowCoupling is one window's C_S with the measurements behind it.
type WindowCoupling struct {
	// Window holds the kernel names in chain order.
	Window []string `json:"window"`
	// ChainedSeconds is P_S, the window measured together.
	ChainedSeconds float64 `json:"chained_seconds"`
	// ExpectedSeconds is the no-interaction combination of the isolated
	// values.
	ExpectedSeconds float64 `json:"expected_seconds"`
	// Coupling is C_S = chained/expected.
	Coupling float64 `json:"coupling"`
}

// ChainCouplings is one chain length's full coupling picture.
type ChainCouplings struct {
	ChainLen         int                 `json:"chain_len"`
	PredictedSeconds float64             `json:"predicted_seconds"`
	Coefficients     []KernelCoefficient `json:"coefficients"`
	Windows          []WindowCoupling    `json:"windows"`
}

// CouplingsResponse is the /couplings body: per-window C_S values and
// composition coefficients for every requested chain length, windows in
// ring order and coefficients in loop order.
type CouplingsResponse struct {
	Workload string           `json:"workload"`
	Trips    int              `json:"trips"`
	Chains   []ChainCouplings `json:"chains"`
	// Degraded mirrors PredictResponse.Degraded.
	Degraded string `json:"degraded,omitempty"`
}

func (s *Server) handleCouplings(w http.ResponseWriter, r *http.Request) error {
	return s.respond(w, r, renderCouplings)
}

func renderCouplings(w http.ResponseWriter, pr predict.Prediction, degraded string) error {
	st := pr.Study
	lens := st.ChainLens()
	resp := CouplingsResponse{
		Workload: st.Workload,
		Trips:    st.Trips,
		Chains:   make([]ChainCouplings, len(lens)),
		Degraded: degraded,
	}
	for ci, L := range lens {
		det := st.Details[L]
		cc := ChainCouplings{
			ChainLen:         L,
			PredictedSeconds: det.Total,
			Coefficients:     make([]KernelCoefficient, len(st.App.Loop)),
			Windows:          make([]WindowCoupling, len(det.Couplings)),
		}
		for i, k := range st.App.Loop {
			cc.Coefficients[i] = KernelCoefficient{Kernel: k, Alpha: det.Coefficients[k]}
		}
		for i, wc := range det.Couplings {
			cc.Windows[i] = WindowCoupling{
				Window:          wc.Window,
				ChainedSeconds:  wc.Chained,
				ExpectedSeconds: wc.Expected,
				Coupling:        wc.C,
			}
		}
		resp.Chains[ci] = cc
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStudy(w http.ResponseWriter, r *http.Request) error {
	return s.respond(w, r, renderStudy)
}

func renderStudy(w http.ResponseWriter, pr predict.Prediction, degraded string) error {
	st := pr.Study
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if degraded != "" {
		fmt.Fprintf(w, "DEGRADED: serving %s answer\n", degraded)
	}
	_, err := fmt.Fprintf(w, "study: %s  trips=%d\n\n%s", st.Workload, st.Trips, harness.RenderStudy(st))
	return err
}

// respond answers a study endpoint: the study, then in the respond span
// its headers and the body render writes. X-Degraded tells a stale
// answer from a fresh one without diffing bodies; a healthy answer has
// none, byte-identical to the unguarded server's.
//
//kcvet:hotpath every warm /predict answer is resolved and written here
func (s *Server) respond(w http.ResponseWriter, r *http.Request, render func(http.ResponseWriter, predict.Prediction, string) error) error {
	pr, degraded, err := s.study(r)
	if err != nil {
		return err
	}
	sp := obs.SpanFrom(r.Context()).StartChild("respond", "")
	if pr.Backend != "" {
		w.Header().Set("X-Backend", pr.Backend)
	}
	if degraded != "" {
		w.Header().Set("X-Degraded", degraded)
	}
	err = render(w, pr, degraded)
	sp.End()
	return err
}

// study parses the request's query and resolves it to a study. The
// returned mode is "" for a fresh healthy answer, or the degradation
// mode (guard.ModeStale / guard.ModeStaleNearby) when the service is
// unhealthy and an old answer was served in place of a 5xx — the last
// rung of the ladder before shedding. Client errors never degrade: a
// 400 query is wrong, and an old answer to it would lie.
func (s *Server) study(r *http.Request) (predict.Prediction, string, error) {
	// A peer's ring view routed a request with the hop header here; honor
	// it and resolve locally whatever our own view says — the one-hop
	// forwarding loop guard, on the public endpoints too.
	hopped := s.cluster != nil && r.Header.Get(cluster.HopHeader) != ""
	if hopped {
		s.reg.Counter("cluster.hop.local").Inc()
	}
	q, key, err := parseRequest(r)
	if err != nil {
		return predict.Prediction{}, "", err
	}
	ctx := r.Context()
	pr, replica, err := s.resolve(ctx, q, key, hopped)
	if err == nil {
		// The ladder feeds on every healthy answer, under its family for
		// the nearby rung. Without it only a replica is kept, by exact key,
		// and any other answer skips the family key and the boxing.
		if s.ladder {
			s.answers.Put(key, q.FamilyKey(), answer{pr, replica})
		} else if replica {
			s.answers.Put(key, "", answer{pr, true})
		}
		return pr, "", nil
	}
	if s.ladder && statusOf(err) >= 500 {
		if v, mode, ok := s.answers.Get(key, q.FamilyKey()); ok {
			s.reg.Counter("serve.degraded").Inc()
			tr := obs.TraceFrom(ctx)
			tr.Annotate("degraded", mode)
			tr.Annotate("degraded_cause", err.Error())
			return v.(answer).pr, mode, nil
		}
	}
	return predict.Prediction{}, "", err
}

// parseRequest reads the request's query in the parse span, which its
// key names: a malformed query is a 400.
func parseRequest(r *http.Request) (Query, string, error) {
	sp := obs.SpanFrom(r.Context()).StartChild("parse", "")
	q, err := ParseQuery(r.URL.Query())
	if err != nil {
		sp.End()
		return Query{}, "", statusError{http.StatusBadRequest, err}
	}
	key := q.Key()
	sp.SetDetail(key)
	sp.End()
	return q, key, nil
}

type healthResponse struct {
	Status string `json:"status"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, http.StatusOK, healthResponse{Status: "ok"})
}

// publishWindows refreshes the sliding-window quantile gauges from the
// per-endpoint windows, so a /metrics scrape always reports the SLO view
// of the recent past. Gauges are only materialized for endpoints that
// have seen traffic — an idle endpoint contributes no p50=0 noise.
func (s *Server) publishWindows() {
	for _, rt := range s.routes {
		if rt.window.Len() == 0 {
			continue
		}
		qs, n := rt.window.Quantiles(0.50, 0.99, 0.999)
		s.reg.Gauge("serve.req." + rt.name + ".p50_ns").Set(qs[0])
		s.reg.Gauge("serve.req." + rt.name + ".p99_ns").Set(qs[1])
		s.reg.Gauge("serve.req." + rt.name + ".p999_ns").Set(qs[2])
		s.reg.Gauge("serve.req." + rt.name + ".window_n").Set(int64(n))
	}
}

// wantProm reports whether the scrape asked for Prometheus text
// exposition, either explicitly (?format=prom) or via content
// negotiation (Accept: text/plain). JSON stays the default so existing
// scrapers see byte-identical bodies.
func wantProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	s.publishWindows()
	if wantProm(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		return obs.WriteProm(w, s.reg.Snapshot())
	}
	return writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// VersionResponse is the /version body: build identity for fleet audits
// (which binary is this replica actually running?).
type VersionResponse struct {
	Service   string `json:"service"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
	GoVersion string `json:"go_version"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
}

// buildVersion reads the binary's build info once at construction; the
// handler serves the frozen copy.
func buildVersion() VersionResponse {
	v := VersionResponse{
		Service:   "kcserved",
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		v.Module = bi.Main.Path
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				v.Revision = st.Value
			case "vcs.modified":
				v.Modified = st.Value == "true"
			}
		}
	}
	return v
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) error {
	return writeJSON(w, http.StatusOK, s.version)
}

// handleDebugRequests dumps the flight recorder: the N slowest traces
// and the recent errored traces, spans and all. 404 when tracing is off
// — an operator should learn the recorder is disabled, not see an empty
// dump that looks like a healthy quiet service.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) error {
	rec := s.tracer.Recorder()
	if rec == nil {
		return statusError{http.StatusNotFound,
			errors.New("request tracing is disabled (start kcserved without -notrace)")}
	}
	return writeJSON(w, http.StatusOK, rec.Snapshot())
}
