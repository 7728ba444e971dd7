package serve

import (
	"net/url"
	"strconv"
	"strings"

	"repro/internal/predict"
	"repro/internal/tables"
)

// Query is one prediction request: the predictor interface's query —
// cmd/couple's flags, with the same defaults, because a query only makes
// sense against a cache that a couple (or tables) campaign warmed, and the
// cache is keyed on exactly these parameters — plus the serving layer's
// backend pin.
type Query struct {
	predict.Query
	// Backend, when non-empty, pins the query to one named predictor
	// backend instead of the server's default chain. Empty on ordinary
	// queries, so warm-path keys keep their pre-backend bytes.
	Backend string
}

// PredictQuery returns the predictor interface's query (the backend pin
// is routing state, not query identity at that layer).
func (q Query) PredictQuery() predict.Query { return q.Query }

// ParseQuery builds a Query from URL parameters: tables.ParseQuery's
// strict parse and defaults (cmd/couple's: BT class S on 4 ranks, chain
// length 2, 3 blocks × 1 pass) plus the serving layer's own parameter,
// the backend pin (measured, cached, interpolated or analytic; default:
// the server's chain).
func ParseQuery(v url.Values) (Query, error) {
	pq, err := tables.ParseQuery(v, "backend")
	if err != nil {
		return Query{}, err
	}
	return Query{Query: pq, Backend: strings.ToLower(strings.TrimSpace(v.Get("backend")))}, nil
}

// Encode renders the query back into URL parameters, every resolved
// field explicit — the peer-fill wire form. ParseQuery(Encode()) is the
// identity: the owner re-parses to the same Query (and therefore the
// same Key), so a proxied question cannot drift from the local one.
func (q Query) Encode() string {
	v := url.Values{}
	v.Set("bench", q.Bench)
	v.Set("class", string(q.Class))
	v.Set("procs", strconv.Itoa(q.Procs))
	v.Set("trips", strconv.Itoa(q.Trips))
	v.Set("blocks", strconv.Itoa(q.Blocks))
	v.Set("passes", strconv.Itoa(q.Passes))
	v.Set("grid", strconv.Itoa(q.Grid))
	if len(q.Chains) > 0 {
		parts := make([]string, len(q.Chains))
		for i, c := range q.Chains {
			parts[i] = strconv.Itoa(c)
		}
		v.Set("chains", strings.Join(parts, ","))
	}
	if q.Backend != "" {
		v.Set("backend", q.Backend)
	}
	return v.Encode()
}

// Key is the query's canonical identity: two requests with the same key
// describe the same study and may share one in-flight resolution. All
// defaults are resolved before the key is formed, so ?bench=BT and an
// empty query collapse together.
//
// The key is built with strconv appends into one sized buffer instead of
// fmt.Sprintf: it runs once per request, before the singleflight group
// can collapse anything, so it is the one serving-path string the cache
// cannot amortize. The rendered bytes are identical to the previous
// Sprintf("%s.%s.p%d g%d t%d b%d x%d c%s") formatting.
//
// FamilyKey groups queries that answer "the same workload, differently
// sliced": same benchmark, class, rank count and grid, any chain/trip/
// repetition shape. It is the stale-serving degradation ladder's
// "nearby" notion — when a query's exact answer is unavailable and the
// service is unhealthy, another member of its family is the closest
// honest substitute.
//
// The backend pin is part of the family, exactly as it is part of Key:
// a ?backend=analytic request asked for analytic provenance, and the
// only honest "nearby" substitute is another answer with the same pin.
// Without the suffix, the degradation ladder could hand a pinned request
// a stale answer of a different provenance — a measured answer to an
// analytic question.
func (q Query) FamilyKey() string {
	b := make([]byte, 0, 32)
	b = append(b, q.Bench...)
	b = append(b, '.')
	b = append(b, string(q.Class)...)
	b = append(b, ".p"...)
	b = strconv.AppendInt(b, int64(q.Procs), 10)
	b = append(b, ".g"...)
	b = strconv.AppendInt(b, int64(q.Grid), 10)
	if q.Backend != "" {
		b = append(b, ".k"...)
		b = append(b, q.Backend...)
	}
	return string(b)
}

//kcvet:hotpath runs once per request on the /predict warm path
func (q Query) Key() string {
	b := q.Query.AppendKey(make([]byte, 0, 64))
	if q.Backend != "" {
		// Backend-pinned queries resolve in their own singleflight and
		// stale-cache identity; the suffix is absent on default-chain
		// queries so warm keys keep their pre-backend bytes.
		b = append(b, " k"...)
		b = append(b, q.Backend...)
	}
	return string(b)
}
