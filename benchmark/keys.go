package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/serve"
)

// key is one member of a query population: the URL parameters a client
// sends and the parsed form the layer probes call the server's public
// functions with. Both come from the same string, so a probe can never
// time a different question than the one the client asked.
type key struct {
	qs string
	q  serve.Query
}

func mustKey(qs string) key {
	v, err := url.ParseQuery(qs)
	if err != nil {
		panic(fmt.Sprintf("benchmark: bad population entry %q: %v", qs, err))
	}
	q, err := serve.ParseQuery(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: bad population entry %q: %v", qs, err))
	}
	return key{qs: qs, q: q}
}

// warmKeys is the population serve_warm and serve_fleet draw from. The
// order is fixed in code, not seeded: rank 0 is the zipf head, and
// which query is hot decides what a median request costs, so a seeded
// order would put the seed's choice — not the code's speed — into p50.
// Ranks interleave benchmarks so the head is not one benchmark's keys.
func warmKeys(smoke bool) []key {
	benches, grids := []string{"BT", "SP", "LU"}, []int{6, 8, 10, 12}
	if smoke {
		benches, grids = []string{"BT", "LU"}, []int{6}
	}
	var ks []key
	for _, chains := range []string{"2", "2,3"} {
		for _, g := range grids {
			for _, b := range benches {
				ks = append(ks, mustKey(fmt.Sprintf("bench=%s&grid=%d&trips=2&procs=4&chains=%s&blocks=3", b, g, chains)))
			}
		}
	}
	return ks
}

// coldGroups is serve_cold's population, one group per (benchmark,
// grid). Within a group the keys overlap: window measurements do not
// depend on the trip count and a chain set reuses every window a
// shorter set measured, so through the job-level cache a key's cost
// depends on which of its group came before it — the "how much work
// inputs share" axis. The order inside a group is therefore fixed in
// code: first the keys that each add new jobs (isolated kernels and
// pairs, then triples, then quadruples, then the other trip count's
// actual runs), then the ones the cache can answer whole. The seed
// decides only how the groups interleave (coldOrder), so every seed
// runs the same multiset of measurements.
func coldGroups(smoke bool) [][]key {
	benches, grids := []string{"BT", "SP", "LU"}, []int{6, 8, 10, 12, 14, 16}
	type shape struct {
		trips  int
		chains string
	}
	shapes := []shape{{1, "2"}, {1, "3"}, {1, "2,4"}, {2, "2"}, {1, "2,3"}, {2, "3"}, {2, "2,3"}, {2, "2,4"}}
	if smoke {
		benches, grids, shapes = []string{"BT", "LU"}, []int{6}, []shape{{1, "2"}, {1, "3"}, {1, "2,3"}}
	}
	var groups [][]key
	for _, b := range benches {
		for _, g := range grids {
			var grp []key
			for _, s := range shapes {
				grp = append(grp, mustKey(fmt.Sprintf("bench=%s&grid=%d&trips=%d&procs=4&chains=%s&blocks=3", b, g, s.trips, s.chains)))
			}
			groups = append(groups, grp)
		}
	}
	return groups
}

// flatten lists the groups' keys group by group.
func flatten(groups [][]key) []key {
	var ks []key
	for _, g := range groups {
		ks = append(ks, g...)
	}
	return ks
}

// coldOrder is client A's seeded sweep: a random interleaving of the
// groups that keeps each group's own order. It returns indexes into
// flatten(groups).
func coldOrder(seed uint64, groups [][]key) []int {
	var slots []int // one entry per key, naming the key's group
	first := make([]int, len(groups))
	n := 0
	for g, grp := range groups {
		first[g] = n
		n += len(grp)
		for range grp {
			slots = append(slots, g)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	order := make([]int, 0, n)
	taken := make([]int, len(groups))
	for _, g := range slots {
		order = append(order, first[g]+taken[g])
		taken[g]++
	}
	return order
}

// readerKeys are serve_cold's pre-warmed keys. Odd grids keep them in
// world-digest namespaces no cold key touches, so the sweep can neither
// warm them nor be warmed by them.
func readerKeys(smoke bool) []key {
	grids := []int{7, 9, 11, 13}
	if smoke {
		grids = []int{7}
	}
	var ks []key
	for _, g := range grids {
		for _, b := range []string{"BT", "LU"} {
			ks = append(ks, mustKey(fmt.Sprintf("bench=%s&grid=%d&trips=2&procs=4&chains=2&blocks=3", b, g)))
		}
	}
	return ks
}

// populationHash identifies a key population in the recorded
// environment: two results are comparable only if their hashes match.
func populationHash(ks []key) string {
	h := sha256.New()
	for _, k := range ks {
		h.Write([]byte(k.qs))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// endpoint is which question a request asks about its key.
type endpoint int

const (
	epPredict endpoint = iota
	epCouplings
	epAnalytic
	numEndpoints
)

func (e endpoint) String() string {
	return [...]string{"predict", "couplings", "analytic"}[e]
}

// pathFor renders the request path and query for a key at an endpoint.
func pathFor(e endpoint, k key) string {
	switch e {
	case epCouplings:
		return "/couplings?" + k.qs
	case epAnalytic:
		return "/predict?" + k.qs + "&backend=analytic"
	}
	return "/predict?" + k.qs
}

// request is one scheduled operation: which key, asked how, entering
// the fleet at which node.
type request struct {
	key      int
	endpoint endpoint
	node     int
}

// stream is one client's request schedule: an endless deterministic
// sequence that is a pure function of (seed, client). How far a run
// gets into it depends on how fast the system answers; what the n-th
// request is does not. The servers see the requests, never the seed.
type stream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	nodes int
	mixed bool
	n     int
}

// newStream builds client's schedule over keys ranks and nodes entry
// nodes. mixed selects serve_fleet's 80/10/10 endpoint mix; otherwise
// every request is a /predict.
func newStream(seed uint64, client, keys, nodes int, mixed bool) *stream {
	rng := rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 + uint64(client) + 1)))
	s := &stream{rng: rng, nodes: nodes, mixed: mixed, n: client}
	if keys > 1 {
		s.zipf = rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
	}
	return s
}

func (s *stream) next() request {
	var r request
	if s.zipf != nil {
		r.key = int(s.zipf.Uint64())
	}
	if s.mixed {
		switch s.rng.Intn(10) {
		case 0:
			r.endpoint = epCouplings
		case 1:
			r.endpoint = epAnalytic
		}
	}
	r.node = s.n % s.nodes
	s.n++
	return r
}

// streamsFor builds one schedule per client.
func streamsFor(seed uint64, keys, nodes int, mixed bool) []*stream {
	ss := make([]*stream, numClients())
	for c := range ss {
		ss[c] = newStream(seed, c, keys, nodes, mixed)
	}
	return ss
}
