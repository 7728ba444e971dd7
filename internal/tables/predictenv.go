package tables

import (
	"context"
	"flag"
	"fmt"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
	"repro/internal/timing"
)

// This file is the canonical binding between the predict package's
// backend interfaces and the experiment substrate: cmd/couple,
// cmd/kcserved and the experiment index all build predictors through it,
// which keeps the cache keys a measured/cached backend produces
// interchangeable across binaries (the same contract workload.go states
// for workloads).

// BackendNames lists the constructible backend names in default chain
// order, cheapest-first after measured.
var BackendNames = []string{
	string(predict.ProvMeasured),
	string(predict.ProvCached),
	string(predict.ProvInterpolated),
	string(predict.ProvAnalytic),
}

// PredictProblem is the canonical problem builder for backend queries:
// the class problem with the query's grid override applied — exactly the
// geometry the cache keys embed via WorldDigest.
func PredictProblem(q predict.Query) (npb.Problem, error) {
	b, err := benchmark(q.Bench)
	if err != nil {
		return npb.Problem{}, err
	}
	prob, err := b.Problem(q.Class)
	if err != nil {
		return npb.Problem{}, err
	}
	return b.Grid(prob, q.Grid), nil
}

// PredictApp is the canonical application-structure builder for backend
// queries: the benchmark's kernel ring with the query's trip count.
func PredictApp(q predict.Query) (core.App, error) {
	b, err := benchmark(q.Bench)
	if err != nil {
		return core.App{}, err
	}
	return core.App{Name: q.Workload(), Pre: b.Pre, Loop: core.Ring(b.Loop), Post: b.Post, Trips: q.Trips}, nil
}

// BackendConfig carries the substrate a constructed backend runs
// against: no network model and defaults for every analytic tunable in
// its zero value.
type BackendConfig struct {
	// Cache is the measurement cache, which its owner opens and closes.
	// Nil means what a nil harness.Options.Cache means: each measuring
	// study measures into a private in-memory cache, and a from-cache
	// study has nothing to read.
	Cache *plan.Cache
	// Net, when non-nil, attaches an interconnect cost model (and flows
	// into the cache keys via WorldDigest).
	Net *mpi.NetModel
	// Metrics receives harness counters; may be nil.
	Metrics *obs.Registry
	// Parallel is the measured backend's executor width (0/1 = serial).
	Parallel int
	// Lattice seeds the interpolated backend.
	Lattice []predict.Query
	// Run and RunFromCache, when non-nil, replace the engine-based study
	// functions — the serving layer injects its guarded paths here.
	Run, RunFromCache predict.StudyFn

	// pool, when non-nil, keeps the rank state of the configurations this
	// config's engines measure (Pooled).
	pool *npb.Pool
}

// maxRetainedCells bounds the rank state one holder — a server, a study
// runner — keeps between studies (npb.Pool). A 4-rank world's built state
// is 0.23–0.47 kB a cell at class W and above, 0.5–0.7 kB at class S's 12³
// and about 1 kB at 6³, where ghost layers outweigh the interior (DESIGN
// §10 has the table). 65 536 cells therefore hold any one class W
// configuration (BT 32³: 15 MB, SP 36³: 19 MB, LU 33³: 10 MB) or some
// forty class S ones (1.1 MB each), 30–45 MB at the very most, times the
// worlds of one configuration that ran at once. Class A (64³ = 262 144
// cells, 61–113 MB a set) and class B (102³, some 450 MB) do not fit and
// are built per study, as every configuration was.
const maxRetainedCells = 1 << 16

// Pooled returns the config with a new, empty pool of rank state behind
// its engines. The pool lives as long as the returned value and its
// copies: the second measuring study of a configuration rebinds the state
// the first one built.
func (c BackendConfig) Pooled() BackendConfig {
	c.pool = npb.NewPool(maxRetainedCells)
	return c
}

// QueryProtocol is the measurement protocol of a backend query: the
// query's blocks and passes — 3 and 1 when it leaves them zero, which are
// also couple's flag defaults and ParseQuery's — the default trim rule,
// and the median of 3 actual runs.
func QueryProtocol(q predict.Query) timing.Protocol {
	return timing.Protocol{Blocks: q.Blocks, Passes: q.Passes, ActualRuns: 3}.Resolved()
}

// Engine builds the measurement engine for one backend query, under the
// query's QueryProtocol.
func (c BackendConfig) Engine(q predict.Query) (harness.Engine, error) {
	return c.engine(q, QueryProtocol(q))
}

// engine builds the measurement engine for q's configuration under
// protocol p. Its workload construction and harness options are the
// cache-key contract: every binary that measures or re-analyzes a study,
// and every table, builds its engine here, so their job keys agree.
func (c BackendConfig) engine(q predict.Query, p timing.Protocol) (harness.Engine, error) {
	prob, err := PredictProblem(q)
	if err != nil {
		return harness.Engine{}, err
	}
	var worldOpts []mpi.Option
	if c.Net != nil {
		worldOpts = append(worldOpts, mpi.WithNetModel(*c.Net))
	}
	w, err := NewWorkload(q.Bench, q.Class, prob, q.Procs, worldOpts)
	if err != nil {
		return harness.Engine{}, err
	}
	w.Pool, w.PoolKey = c.pool, npb.PoolKey{Bench: q.Bench, Problem: prob, Procs: q.Procs}
	return harness.Engine{Workload: w, Opts: harness.Options{
		Parallel:    c.Parallel,
		Cache:       c.Cache,
		Metrics:     c.Metrics,
		WorldDigest: WorldDigest(prob, c.Net),
	}.WithProtocol(p)}, nil
}

// StudyRunner returns the measured StudyFn: plan, execute (or reuse) and
// analyze the full study. The runner keeps the rank state of what it
// measures for the studies it is asked for next.
func (c BackendConfig) StudyRunner() predict.StudyFn {
	if c.Run != nil {
		return c.Run
	}
	if c.pool == nil {
		c = c.Pooled()
	}
	return func(ctx context.Context, q predict.Query) (*harness.Study, error) {
		eng, err := c.Engine(q)
		if err != nil {
			return nil, err
		}
		return eng.RunCtx(ctx, q.Trips, q.Chains)
	}
}

// CacheRunner returns the cached StudyFn: pure re-analysis of the warmed
// cache, failing with harness.ErrCacheMiss (which the cached backend
// turns into a refusal) when any measurement is missing.
func (c BackendConfig) CacheRunner() predict.StudyFn {
	if c.RunFromCache != nil {
		return c.RunFromCache
	}
	return func(ctx context.Context, q predict.Query) (*harness.Study, error) {
		eng, err := c.Engine(q)
		if err != nil {
			return nil, err
		}
		return eng.RunFromCacheCtx(ctx, q.Trips, q.Chains)
	}
}

// CacheMemo returns the cached backend's memo lookup: the study
// CacheRunner would return for a query if the cache's memo holds it now
// (harness.Engine.FromMemo), found without planning, reading or
// analysing.
func (c BackendConfig) CacheMemo() predict.MemoFn {
	return func(ctx context.Context, q predict.Query) (*harness.Study, bool) {
		eng, err := c.Engine(q)
		if err != nil {
			return nil, false
		}
		return eng.FromMemo(q.Trips, q.Chains)
	}
}

// NewBackend constructs one backend by name: measured, cached,
// interpolated or analytic.
func NewBackend(name string, cfg BackendConfig) (predict.Predictor, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case string(predict.ProvMeasured):
		return &predict.Measured{Run: cfg.StudyRunner()}, nil
	case string(predict.ProvCached):
		return &predict.Cached{Run: cfg.CacheRunner(), Memo: cfg.CacheMemo()}, nil
	case string(predict.ProvInterpolated):
		return &predict.Interpolated{
			Source:  cfg.CacheRunner(),
			Lattice: cfg.Lattice,
			Problem: PredictProblem,
		}, nil
	case string(predict.ProvAnalytic):
		return NewAnalytic(), nil
	}
	return nil, fmt.Errorf("tables: unknown backend %q (have %s)", name, strings.Join(BackendNames, ", "))
}

// NewAnalytic returns the canonical analytic backend: default cache
// hierarchy and traffic model over the canonical problem geometry.
func NewAnalytic() *predict.Analytic {
	return &predict.Analytic{Problem: PredictProblem, App: PredictApp}
}

// ParseLattice parses a lattice specification: ';'-separated URL-query
// items, each one configuration in kcserved's query-parameter syntax,
// e.g. "bench=BT&grid=6&procs=4;bench=BT&grid=8&procs=4". Each item goes
// through ParseQuery, so a lattice point gets exactly the defaults — and
// the typo rejection — a served query gets. An item may not name chains:
// every lattice point is read at the chain lengths of the query it
// answers.
func ParseLattice(spec string) ([]predict.Query, error) {
	var lattice []predict.Query
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		v, err := url.ParseQuery(item)
		if err != nil {
			return nil, fmt.Errorf("tables: lattice item %q: %w", item, err)
		}
		if v.Has("chains") {
			return nil, fmt.Errorf("tables: lattice item %q names chains, and the query already does: every lattice point is read at the query's chain lengths", item)
		}
		q, err := ParseQuery(v)
		if err != nil {
			return nil, fmt.Errorf("tables: lattice item %q: %w", item, err)
		}
		lattice = append(lattice, q)
	}
	if len(lattice) == 0 {
		return nil, fmt.Errorf("tables: empty lattice spec %q", spec)
	}
	return lattice, nil
}

// queryParams is the complete set of accepted query parameters; anything
// else is a client error, because a typo'd parameter would otherwise
// silently fall back to a default and answer the wrong question.
var queryParams = map[string]string{
	"bench":  "benchmark: BT, SP, LU or FT",
	"class":  "problem class: S, W, A or B",
	"procs":  "rank count",
	"chains": "comma-separated coupling chain lengths",
	"trips":  "loop trip count (0 = scaled class default)",
	"blocks": "timed blocks per measurement",
	"passes": "window passes per block",
	"grid":   "grid override (n³, n² for FT)",
}

// FlagValues returns the query parameters among the flags set on fs's
// command line, as the query string ParseQuery reads: a command whose
// flags name a study parses them as a served request is parsed, so it
// defaults and refuses a configuration as kcserved does.
func FlagValues(fs *flag.FlagSet) url.Values {
	v := url.Values{}
	fs.Visit(func(f *flag.Flag) {
		if _, ok := queryParams[f.Name]; ok {
			v.Set(f.Name, f.Value.String())
		}
	})
	return v
}

// ParseQuery builds a predict.Query from URL parameters, applying
// cmd/couple's defaults: BT class S on 4 ranks, chain length 2, the
// QueryProtocol's blocks and passes, class-default trips. It is the one
// parser behind kcserved's query string, every -lattice item and the
// study flags of couple and npbrun (FlagValues). The benchmark/class pair,
// and each chain length against the benchmark's loop ring, are validated
// here so a bad query fails before any cache work happens.
//
// extra names parameters the caller consumes itself (the serving layer's
// backend pin): they get the same given-once, non-empty validation and
// are otherwise ignored.
func ParseQuery(v url.Values, extra ...string) (predict.Query, error) {
	// Validate in sorted key order, so a query with two faults always
	// reports the same one; the stack buffer keeps a served query's parse
	// allocation-free.
	var buf [16]string
	keys := buf[:0]
	for key := range v {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		if _, ok := queryParams[key]; !ok && !slices.Contains(extra, key) {
			return predict.Query{}, fmt.Errorf("unknown parameter %q", key)
		}
		if len(v[key]) > 1 {
			return predict.Query{}, fmt.Errorf("parameter %q given %d times", key, len(v[key]))
		}
		// An explicitly empty value (?chains= or bare ?chains) is a
		// client mistake, not a request for the default: silently
		// substituting the default would answer a question the caller
		// never asked. Same "never answer the wrong question" contract as
		// the unknown-parameter rejection above.
		if strings.TrimSpace(v[key][0]) == "" {
			return predict.Query{}, fmt.Errorf("parameter %q has an empty value (omit it to use the default)", key)
		}
	}
	get := func(key, def string) string {
		if s := strings.TrimSpace(v.Get(key)); s != "" {
			return s
		}
		return def
	}
	getInt := func(key string, def, min int) (int, error) {
		s := v.Get(key)
		if s == "" {
			return def, nil
		}
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return 0, fmt.Errorf("bad %s %q", key, s)
		}
		if n < min {
			return 0, fmt.Errorf("%s must be >= %d, got %d", key, min, n)
		}
		return n, nil
	}

	q := predict.Query{
		Bench: strings.ToUpper(get("bench", "BT")),
		Class: npb.Class(strings.ToUpper(get("class", "S"))),
	}
	b, err := benchmark(q.Bench)
	if err != nil {
		return predict.Query{}, err
	}
	if _, err := b.Problem(q.Class); err != nil {
		return predict.Query{}, err
	}
	if q.Procs, err = getInt("procs", 4, 1); err != nil {
		return predict.Query{}, err
	}
	def := QueryProtocol(predict.Query{})
	if q.Blocks, err = getInt("blocks", def.Blocks, 1); err != nil {
		return predict.Query{}, err
	}
	if q.Passes, err = getInt("passes", def.Passes, 1); err != nil {
		return predict.Query{}, err
	}
	if q.Grid, err = getInt("grid", 0, 0); err != nil {
		return predict.Query{}, err
	}
	if q.Trips, err = getInt("trips", 0, 0); err != nil {
		return predict.Query{}, err
	}
	if q.Trips == 0 {
		q.Trips = DefaultTrips(q.Class)
	}

	seen := map[int]bool{}
	for _, s := range strings.Split(get("chains", "2"), ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return predict.Query{}, fmt.Errorf("bad chains value %q", s)
		}
		// A window is at least a pair and at most the whole loop ring.
		if n < 2 || n > len(b.Loop) {
			return predict.Query{}, fmt.Errorf("chain length %d out of range [2,%d]", n, len(b.Loop))
		}
		if !seen[n] {
			seen[n] = true
			q.Chains = append(q.Chains, n)
		}
	}
	sort.Ints(q.Chains)
	return q, nil
}
