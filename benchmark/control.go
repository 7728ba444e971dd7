package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
)

// controlNominalUs is the control's round trip on the quiet 2-vCPU
// sandbox. Corrected figures are raw figures times nominal/measured
// control, so on a quiet host they read the same as raw ones.
const controlNominalUs = 35.0

// controlSlice is how long one control slice runs: about 6 000 round
// trips, a median that repeats within a few percent.
const controlSlice = 150 * time.Millisecond

// control is what every timed figure is corrected by: a bare net/http
// server in this process that answers every request with one canned
// /predict body, driven by the load generator's own clients in a short
// slice before and after each timed piece of work. It runs none of the
// repository's code, so nothing a change does to the program can move
// it. What moves it is the host: the sandbox switches between a fast
// and a slow regime about 1.5x apart, minutes at a time, and everything
// — a warm request, a cold sweep, a BT study, this control — slows by
// about that factor together. Two runs a minute apart differ by more
// than any bound this benchmark could state; the work between two
// control slices saw the same host they did.
type control struct {
	ts      *httptest.Server
	t       *targets
	streams []*stream
	chk     *checker
	last    float64   // the latest slice's median round trip in µs
	all     []float64 // every slice's
}

// startControl starts the control server; its requests are counted and
// checked by chk like any others.
func startControl(chk *checker) (*control, error) {
	body, err := json.MarshalIndent(serve.PredictResponse{
		Workload: "control", Trips: 2, ActualSeconds: 1,
		Predictors: []serve.Predictor{{Label: "Summation", Seconds: 1}, {Label: "Coupling: 2 kernels", ChainLen: 2, Seconds: 1}},
	}, "", "  ")
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	c := &control{chk: chk, streams: streamsFor(0, 1, 1, false)}
	c.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	c.t = newTargets("control", []string{c.ts.URL}, []key{mustKey("bench=BT")})
	return c, nil
}

func (c *control) close() { c.ts.Close() }

// mark runs a control slice: the start of a timed interval.
func (c *control) mark() {
	c.last = statOf(closedLoop(c.t, c.streams, controlSlice, discardPerSlice, c.chk, nil), controlSlice).p50us
	c.all = append(c.all, c.last)
}

// since runs a control slice and returns how much slower than nominal
// the host ran over the interval since the previous one: the mean of
// the two slices over the nominal control. Times are divided by it,
// rates multiplied. The slice it ran also starts the next interval.
func (c *control) since() float64 {
	before := c.last
	c.mark()
	return (before + c.last) / 2 / controlNominalUs
}

// slices is how many control slices have run: a position to hand to
// window later.
func (c *control) slices() int { return len(c.all) }

// window is the host's speed factor over a stretch of the run: the
// median of the control slices from the from-th on, over the nominal
// control. CPU-bound figures — a set-up, a cold sweep, a study — are
// corrected by the window of their own sweep or trial, not by their two
// adjacent slices: they follow the host's regime but not the sub-second
// jitter of a 150 ms slice, which would only add its own noise to them.
func (c *control) window(from int) float64 { return median(c.all[from:]) / controlNominalUs }

// describe records what the correction was, so raw figures can be
// recovered from a result.
func (c *control) describe(info map[string]any) {
	info["correction"] = fmt.Sprintf("round-trip figures (closed and open rounds, restart reads) divided, rates multiplied, by the mean of the control slices (%v, %d clients) before and after them over %.0f us; set-ups, cold sweeps and studies by the median of the control slices of their own phase, sweep or trial over %.0f us; raw_* are the uncorrected medians",
		controlSlice, numClients(), controlNominalUs, controlNominalUs)
	info["control_p50_us"] = median(c.all)
	info["control_slices"] = len(c.all)
}

// corrected is a series of timed figures with the host-speed factor each
// was measured under.
type corrected struct {
	raw, speed []float64
}

func (s *corrected) add(raw, speed float64) {
	s.raw, s.speed = append(s.raw, raw), append(s.speed, speed)
}

// time is the median of the series read as times: each divided by its
// factor. rate reads it as rates: each multiplied.
func (s corrected) time() float64 {
	out := make([]float64, len(s.raw))
	for i := range out {
		out[i] = s.raw[i] / s.speed[i]
	}
	return median(out)
}

func (s corrected) rate() float64 {
	out := make([]float64, len(s.raw))
	for i := range out {
		out[i] = s.raw[i] * s.speed[i]
	}
	return median(out)
}

// closedPhase is a closed-loop phase: rounds of one work slice each,
// every slice between two control slices.
type closedPhase struct {
	p50, tail, rps  corrected
	tailQ           float64
	minSliceSamples int
}

// discardPerSlice is how many requests each client sends and throws
// away at the start of every slice: each slice opens fresh connections,
// and follows a slice that left other code and data in the CPU's caches.
const discardPerSlice = 25

// runClosedPhase alternates control and work slices. The work streams
// carry on from slice to slice, so the phase is one seeded schedule cut
// into rounds, not rounds repeating one schedule.
func runClosedPhase(work *targets, streams []*stream, ctl *control, rounds int, workDur time.Duration, chk *checker) closedPhase {
	var p closedPhase
	var stats []sliceStat
	var speeds []float64
	ctl.mark()
	for i := 0; i < rounds; i++ {
		stats = append(stats, statOf(closedLoop(work, streams, workDur, discardPerSlice, chk, nil), workDur))
		speeds = append(speeds, ctl.since())
	}
	p.minSliceSamples = stats[0].n
	for _, st := range stats {
		if st.n < p.minSliceSamples {
			p.minSliceSamples = st.n
		}
	}
	p.tailQ = tailQuantile(p.minSliceSamples)
	for i, st := range stats {
		tail := st.p99us
		if p.tailQ < 0.99 {
			tail = st.p95us
		}
		p.p50.add(st.p50us, speeds[i])
		p.tail.add(tail, speeds[i])
		p.rps.add(st.rps, speeds[i])
	}
	return p
}

// report writes the phase's three figures — each the median over rounds
// of that round's own corrected figure, so a round that caught a GC
// cycle or a noisy neighbour moves the result by one rank, not by its
// size — and how they were taken.
func (p closedPhase) report(res *result, what string, workDur time.Duration) {
	res.e2e["p50_us"], res.e2e["p99_us"], res.e2e["rps"] = p.p50.time(), p.tail.time(), p.rps.rate()
	res.info["raw_p50_us"], res.info["raw_p99_us"], res.info["raw_rps"] = median(p.p50.raw), median(p.tail.raw), median(p.rps.raw)
	res.info["closed"] = fmt.Sprintf("%d clients, %d rounds of %v work between control slices, %s, %d requests/client discarded at the start of every slice",
		numClients(), len(p.p50.raw), workDur, what, discardPerSlice)
	res.info["p99_quantile"] = p.tailQ
	res.info["p99_min_slice_samples"] = p.minSliceSamples
}

// openPhase is an open-loop phase cut into rounds, each between two
// control slices. One host stall delays every request due during it: in
// a whole-phase quantile a single long stall is the tail, in a median
// over rounds it is one round.
type openPhase struct {
	p50     corrected
	tailUs  []float64 // per round, raw
	tailQ   float64
	samples int
	lateUs  []float64
}

func runOpenPhase(t *targets, streams []*stream, ctl *control, rate float64, rounds int, roundDur time.Duration, chk *checker) openPhase {
	var p openPhase
	var lats [][]float64
	ctl.mark()
	for i := 0; i < rounds; i++ {
		o := openLoop(t, streams, rate, roundDur, discardPerSlice, nil, chk)
		us := sortedMicros(o.lat)
		p.p50.add(quantile(us, 0.50), ctl.since())
		lats = append(lats, us)
		p.lateUs = append(p.lateUs, micros(o.late)...)
		p.samples += len(us)
	}
	p.tailQ = tailQuantile(p.samples / rounds)
	for _, us := range lats {
		p.tailUs = append(p.tailUs, quantile(us, p.tailQ))
	}
	return p
}
