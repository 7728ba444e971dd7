package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
)

// numClients is how many client goroutines generate load: one process,
// never more goroutines than the host has CPUs, so the generator cannot
// be the queue it is trying to measure.
func numClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// checker counts every operation a workload attempts and decides which
// of them failed. It also holds the reference body per (endpoint, key):
// answers are immutable, so any later body that differs — across
// requests, entry nodes or a restart — is a failed operation.
type checker struct {
	mu        sync.Mutex
	ref       map[string][]byte
	attempted int
	failed    int
	notes     []string
}

func newChecker() *checker { return &checker{ref: make(map[string][]byte)} }

// op records one non-HTTP operation.
func (c *checker) op(ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failLocked(fmt.Sprintf(format, args...))
	}
}

// check records a failure of an invariant that is not itself an
// operation (a counter that should be zero, a budget that should sum).
func (c *checker) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(fmt.Sprintf(format, args...))
}

func (c *checker) failLocked(note string) {
	c.failed++
	if len(c.notes) < 10 {
		c.notes = append(c.notes, note)
	}
}

// response records one HTTP operation. id names the (endpoint, key)
// whose reference body it is compared with; an empty id skips the body
// comparison (a cold answer carries the executions it caused and is
// compared after a warm re-read instead).
func (c *checker) response(id string, e endpoint, status int, body []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	switch {
	case err != nil:
		c.failLocked(fmt.Sprintf("%s: %v", id, err))
		return
	case status != http.StatusOK:
		c.failLocked(fmt.Sprintf("%s: status %d: %.120s", id, status, body))
		return
	case id == "":
		return
	}
	ref, seen := c.ref[id]
	if seen {
		if !bytes.Equal(ref, body) {
			c.failLocked(fmt.Sprintf("%s: body differs from the first one seen", id))
		}
		return
	}
	if err := validBody(e, body); err != nil {
		c.failLocked(fmt.Sprintf("%s: %v", id, err))
	}
	c.ref[id] = append([]byte(nil), body...)
}

// validBody decodes a first-seen body and checks every predicted time
// is a finite positive number.
func validBody(e endpoint, body []byte) error {
	if e == epCouplings {
		var r serve.CouplingsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Chains) == 0 {
			return fmt.Errorf("no chains in body")
		}
		for _, ch := range r.Chains {
			if !positive(ch.PredictedSeconds) {
				return fmt.Errorf("chain %d predicts %v s", ch.ChainLen, ch.PredictedSeconds)
			}
		}
		return nil
	}
	var r serve.PredictResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if len(r.Predictors) == 0 {
		return fmt.Errorf("no predictors in body")
	}
	for _, p := range r.Predictors {
		if !positive(p.Seconds) {
			return fmt.Errorf("%s predicts %v s", p.Label, p.Seconds)
		}
	}
	return nil
}

// positive reports whether v is a finite time greater than zero.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// client is one load-generating connection set: a private transport
// with one keep-alive connection per host, and a reusable read buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// get performs one round trip and returns the status and the body,
// which is valid until the next call.
func (c *client) get(url string) (int, []byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// targets is the URL table of a running fixture: one base address per
// entry node, every (node, endpoint, key) URL rendered once so the
// request loop does no string building.
type targets struct {
	keys []key
	urls [][numEndpoints][]string
	ids  [numEndpoints][]string
}

// newTargets renders the table. name prefixes the reference-body ids,
// so two fixtures checked by one checker cannot share a reference.
func newTargets(name string, bases []string, keys []key) *targets {
	t := &targets{keys: keys, urls: make([][numEndpoints][]string, len(bases))}
	for e := endpoint(0); e < numEndpoints; e++ {
		t.ids[e] = make([]string, len(keys))
		for k := range keys {
			t.ids[e][k] = name + " " + e.String() + " " + keys[k].qs
		}
		for n, base := range bases {
			t.urls[n][e] = make([]string, len(keys))
			for k := range keys {
				t.urls[n][e][k] = base + pathFor(e, keys[k])
			}
		}
	}
	return t
}

func (t *targets) url(r request) string { return t.urls[r.node][r.endpoint][r.key] }
func (t *targets) id(r request) string  { return t.ids[r.endpoint][r.key] }

// observed is one timed request, kept so a workload can split latency
// by what the request was.
type observed struct {
	req request
	lat time.Duration
}

// sampleFn is the traced pass's hook: called on the client's own
// goroutine for every sampleEvery-th request, after its round trip.
type sampleFn func(client int, r request, start time.Time, lat time.Duration)

// sampleEvery keeps the replays, which run on a client's goroutine
// beside the other client's live requests, to a few percent of a CPU.
const sampleEvery = 256

// closedLoop runs one goroutine per stream for dur, each sending its
// next request only when the previous one has been answered. Every
// client first sends discard untimed requests (connection set-up, lazy
// initialisation, caches refilled after whatever ran before), then all
// start the clock together. It returns every request that started
// inside dur.
func closedLoop(t *targets, streams []*stream, dur time.Duration, discard int, chk *checker, sample sampleFn) []observed {
	perClient := make([][]observed, len(streams))
	var ready, done sync.WaitGroup
	ready.Add(len(streams))
	done.Add(len(streams))
	start := make(chan time.Time)
	for ci, st := range streams {
		go func(ci int, st *stream) {
			defer done.Done()
			cl := newClient()
			defer cl.close()
			send := func() (request, time.Time, time.Duration) {
				r := st.next()
				t0 := time.Now()
				status, body, err := cl.get(t.url(r))
				lat := time.Since(t0)
				chk.response(t.id(r), r.endpoint, status, body, err)
				return r, t0, lat
			}
			for i := 0; i < discard; i++ {
				send()
			}
			ready.Done()
			t0 := <-start
			for n := 0; ; n++ {
				r, at, lat := send()
				if at.Sub(t0) >= dur {
					return
				}
				perClient[ci] = append(perClient[ci], observed{req: r, lat: lat})
				if sample != nil && n%sampleEvery == 0 {
					sample(ci, r, at, lat)
				}
			}
		}(ci, st)
	}
	ready.Wait()
	t0 := time.Now()
	for range streams {
		start <- t0
	}
	done.Wait()
	var all []observed
	for _, pc := range perClient {
		all = append(all, pc...)
	}
	return all
}

// sliceStat is one slice of a closed loop reduced to its figures, in
// raw (uncorrected) units.
type sliceStat struct {
	p50us, p95us, p99us, rps float64
	n                        int
}

func statOf(obs []observed, dur time.Duration) sliceStat {
	lats := make([]time.Duration, len(obs))
	for i, o := range obs {
		lats[i] = o.lat
	}
	us := sortedMicros(lats)
	return sliceStat{
		p50us: quantile(us, 0.50), p95us: quantile(us, 0.95), p99us: quantile(us, 0.99),
		rps: float64(len(obs)) / dur.Seconds(), n: len(obs),
	}
}

// openResult is what an open-loop phase observed, per request: its
// latency, and how late the generator actually fired — the validity
// figure for the latencies beside it.
type openResult struct {
	lat, late []time.Duration
}

// openLoop sends on a fixed schedule regardless of answers: arrival i
// is due at start + i/rate and is sent by client i mod len(streams).
// A client still waiting for an earlier answer when a request falls due
// sends it late, and the wait counts against the late request, as it
// would for a real caller: its latency runs from the instant it was
// due. A client that was idle when the request fell due and merely woke
// late — Go rounds an idle process's timers up to the millisecond — is
// late by the generator's own fault, not the server's: that request's
// latency runs from the instant it was sent, and the oversleep is
// reported as lateness. Each client first sends discard untimed
// requests; the schedule then runs until stop is closed or, when stop
// is nil, for dur.
func openLoop(t *targets, streams []*stream, rate float64, dur time.Duration, discard int, stop <-chan struct{}, chk *checker) openResult {
	gap := time.Duration(float64(time.Second) / rate)
	per := make([]openResult, len(streams))
	var ready, wg sync.WaitGroup
	ready.Add(len(streams))
	start := make(chan time.Time)
	for ci, st := range streams {
		wg.Add(1)
		go func(ci int, st *stream) {
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			for i := 0; i < discard; i++ {
				r := st.next()
				status, body, err := cl.get(t.url(r))
				chk.response(t.id(r), r.endpoint, status, body, err)
			}
			ready.Done()
			t0 := <-start
			var free time.Time // when this client's previous answer arrived
			for i := ci; ; i += len(streams) {
				due := t0.Add(time.Duration(i) * gap)
				if stop == nil && due.Sub(t0) >= dur {
					return
				}
				if stop != nil {
					select {
					case <-stop:
						return
					default:
					}
				}
				time.Sleep(time.Until(due))
				r := st.next()
				sent := time.Now()
				status, body, err := cl.get(t.url(r))
				end := time.Now()
				chk.response(t.id(r), r.endpoint, status, body, err)
				from := sent
				if free.After(due) {
					from = due
				}
				free = end
				per[ci].lat = append(per[ci].lat, end.Sub(from))
				per[ci].late = append(per[ci].late, sent.Sub(due))
			}
		}(ci, st)
	}
	ready.Wait()
	t0 := time.Now().Add(time.Millisecond)
	for range streams {
		start <- t0
	}
	wg.Wait()
	var out openResult
	for _, p := range per {
		out.lat = append(out.lat, p.lat...)
		out.late = append(out.late, p.late...)
	}
	return out
}
