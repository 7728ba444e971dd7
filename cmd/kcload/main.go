// Command kcload drives a kcserved fleet with a deterministic mixed
// query stream and reports client-observed latency quantiles. It is the
// cluster's load generator and chaos driver in one binary:
//
//   - a seeded zipf popularity distribution over K distinct query
//     variants models the real shape of prediction traffic (a hot head
//     the replica tier should absorb, a long tail the ring spreads)
//   - an initial deterministic sweep issues every variant exactly once,
//     so the fleet's cold-key cost is countable: with on-demand
//     measurement, fleet-wide measure executions must equal the number
//     of distinct variants — the cluster's exactly-once promise
//   - -burst fires synchronized request volleys at the hottest key
//   - -kill sends SIGTERM to a fleet process after a chosen number of
//     completed requests, exercising rehash-to-survivors mid-run
//   - transport failures retry against the next target, so a killed
//     node costs latency, never a lost request
//
// The run summary (JSON on stdout, and -out) carries request/status
// counts and p50/p99/p999.
//
// Example, 3-node fleet with a mid-run kill:
//
//	kcload -targets 127.0.0.1:8641,127.0.0.1:8642,127.0.0.1:8643 \
//	  -n 300 -keys 6 -kill $PID2@100 -max-5xx 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	var (
		targets     = flag.String("targets", "", "comma-separated kcserved base addresses (required)")
		n           = flag.Int("n", 200, "zipf-phase request count (after the deterministic sweep)")
		concurrency = flag.Int("concurrency", 8, "concurrent in-flight requests")
		keys        = flag.Int("keys", 8, "distinct query variants in the key population")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf skew (s > 1; larger = hotter head)")
		seed        = flag.Uint64("seed", 1, "seed for the popularity draw and target rotation")
		baseQuery   = flag.String("base-query", "bench=BT&class=S&procs=4&chains=2&trips=2&blocks=1&passes=1",
			"query template; variant i appends grid=<grid0+i>")
		grid0     = flag.Int("grid0", 4, "grid of variant 0 (variant i uses grid0+i)")
		burst     = flag.Int("burst", 0, "burst size: extra synchronized requests for the hottest key (0 disables)")
		burstEach = flag.Int("burst-every", 50, "completed requests between bursts")
		kills     = flag.String("kill", "", "comma-separated pid@afterN clauses: SIGTERM pid once N requests completed")
		max5xx    = flag.Int("max-5xx", 0, "tolerated 5xx responses before exiting nonzero")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		warmup    = flag.Duration("warmup", 30*time.Second, "how long to wait for every target's /healthz")
		out       = flag.String("out", "", "write the JSON summary here as well as stdout")
	)
	flag.Parse()
	if *targets == "" {
		fail("-targets is required")
	}
	bases := make([]string, 0)
	for _, a := range strings.Split(*targets, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		bases = append(bases, strings.TrimRight(a, "/"))
	}
	if len(bases) == 0 {
		fail("-targets lists no addresses")
	}
	if *keys < 1 || *n < 0 || *concurrency < 1 {
		fail("-keys and -concurrency must be >= 1, -n >= 0")
	}
	killPlan, err := parseKills(*kills)
	if err != nil {
		fail("%v", err)
	}

	client := &http.Client{Timeout: *timeout}
	if err := waitHealthy(client, bases, *warmup); err != nil {
		fail("%v", err)
	}

	// The key population: variant i is the base query plus grid=grid0+i —
	// distinct grids are distinct plan keys, so the sweep's cold-key
	// count is exactly -keys.
	variants := make([]string, *keys)
	for i := range variants {
		variants[i] = *baseQuery + "&grid=" + strconv.Itoa(*grid0+i)
	}

	run := &loadRun{
		client: client,
		bases:  bases,
		kills:  killPlan,
	}

	// Phase 1: deterministic sweep — every variant exactly once, round-
	// robin over targets. Sequential on purpose: concurrent cold keys
	// would still measure once each (singleflight), but sequencing makes
	// the sweep's timing reproducible and keeps the measurement load off
	// the burst machinery.
	for i, qs := range variants {
		run.do(bases[i%len(bases)], qs)
	}
	sweepDone := run.completed.Load()

	// Phase 2: zipf traffic with optional bursts. The popularity draw and
	// the per-request target rotation both derive from -seed, so two runs
	// against identical fleets issue the identical request schedule.
	rng := rand.New(rand.NewSource(int64(*seed)))
	zipf := rand.NewZipf(rng, *zipfS, 1, uint64(*keys-1))
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	launch := func(base, qs string) {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			run.do(base, qs)
		}()
	}
	for i := 0; i < *n; i++ {
		run.fireKills()
		launch(bases[i%len(bases)], variants[zipf.Uint64()])
		if *burst > 0 && *burstEach > 0 && i > 0 && i%*burstEach == 0 {
			// A volley for the hottest key: the shape that drives a
			// non-owner past the replication threshold.
			for b := 0; b < *burst; b++ {
				launch(bases[(i+b)%len(bases)], variants[0])
			}
		}
	}
	wg.Wait()
	run.fireKills()

	sum := run.summary(sweepDone)
	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	blob = append(blob, '\n')
	os.Stdout.Write(blob)
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fail("%v", err)
		}
	}
	if sum.Status5xx > *max5xx {
		fail("%d responses were 5xx (max %d)", sum.Status5xx, *max5xx)
	}
}

// killClause is one pid@afterN trigger.
type killClause struct {
	pid   int
	after int64
	fired bool
}

func parseKills(s string) ([]*killClause, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var plan []*killClause
	for _, clause := range strings.Split(s, ",") {
		pidS, afterS, ok := strings.Cut(strings.TrimSpace(clause), "@")
		if !ok {
			return nil, fmt.Errorf("kill clause %q: want pid@afterN", clause)
		}
		pid, err := strconv.Atoi(pidS)
		if err != nil || pid <= 0 {
			return nil, fmt.Errorf("kill clause %q: bad pid", clause)
		}
		after, err := strconv.ParseInt(afterS, 10, 64)
		if err != nil || after < 0 {
			return nil, fmt.Errorf("kill clause %q: bad request count", clause)
		}
		plan = append(plan, &killClause{pid: pid, after: after})
	}
	return plan, nil
}

func waitHealthy(client *http.Client, bases []string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for _, base := range bases {
		for {
			resp, err := client.Get(base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("target %s never became healthy (%v)", base, budget)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// loadRun accumulates results across the concurrent request workers.
type loadRun struct {
	client *http.Client
	bases  []string

	completed atomic.Int64

	mu        sync.Mutex
	latencies []time.Duration
	status2xx int
	status4xx int
	status5xx int
	retries   int
	transport int // requests that failed every target

	killMu sync.Mutex
	kills  []*killClause
	killed []int
}

// do issues one request, retrying each remaining target in rotation on
// transport failure — a killed node's listener refuses, the next target
// answers, the request is never lost. Response bodies are drained and
// discarded; only status and latency matter here.
func (r *loadRun) do(base, qs string) {
	start := time.Now()
	idx := 0
	for i, b := range r.bases {
		if b == base {
			idx = i
			break
		}
	}
	var status int
	tried := 0
	for attempt := 0; attempt < len(r.bases); attempt++ {
		target := r.bases[(idx+attempt)%len(r.bases)]
		resp, err := r.client.Get(target + "/predict?" + qs)
		tried++
		if err != nil {
			continue // connection refused / reset: try the next target
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		break
	}
	elapsed := time.Since(start)
	r.completed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies = append(r.latencies, elapsed)
	r.retries += tried - 1
	switch {
	case status == 0:
		r.transport++
	case status >= 500:
		r.status5xx++
	case status >= 400:
		r.status4xx++
	default:
		r.status2xx++
	}
}

// fireKills triggers any kill clause whose request threshold has been
// reached. Called from the dispatcher loop, so kills land between
// launches at a deterministic point in the schedule.
func (r *loadRun) fireKills() {
	done := r.completed.Load()
	r.killMu.Lock()
	var due []*killClause
	for _, k := range r.kills {
		if k.fired || done < k.after {
			continue
		}
		k.fired = true
		due = append(due, k)
	}
	r.killMu.Unlock()
	for _, k := range due {
		if err := syscall.Kill(k.pid, syscall.SIGTERM); err != nil {
			fmt.Fprintf(os.Stderr, "kcload: kill %d: %v\n", k.pid, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "kcload: sent SIGTERM to %d after %d requests\n", k.pid, done)
		r.killMu.Lock()
		r.killed = append(r.killed, k.pid)
		r.killMu.Unlock()
	}
}

// Summary is the run's JSON report.
type Summary struct {
	Targets   []string `json:"targets"`
	Requests  int      `json:"requests"`
	Sweep     int64    `json:"sweep"`
	Status2xx int      `json:"status_2xx"`
	Status4xx int      `json:"status_4xx"`
	Status5xx int      `json:"status_5xx"`
	Transport int      `json:"transport_failures"`
	Retries   int      `json:"retries"`
	Killed    []int    `json:"killed_pids,omitempty"`
	P50Ns     int64    `json:"p50_ns"`
	P99Ns     int64    `json:"p99_ns"`
	P999Ns    int64    `json:"p999_ns"`
}

func (r *loadRun) summary(sweep int64) Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	sorted := append([]time.Duration(nil), r.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) int64 {
		if len(sorted) == 0 {
			return 0
		}
		i := int(p * float64(len(sorted)-1))
		return sorted[i].Nanoseconds()
	}
	r.killMu.Lock()
	killed := append([]int(nil), r.killed...)
	r.killMu.Unlock()
	return Summary{
		Targets:   r.bases,
		Requests:  len(r.latencies),
		Sweep:     sweep,
		Status2xx: r.status2xx,
		Status4xx: r.status4xx,
		Status5xx: r.status5xx,
		Transport: r.transport,
		Retries:   r.retries,
		Killed:    killed,
		P50Ns:     q(0.50),
		P99Ns:     q(0.99),
		P999Ns:    q(0.999),
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kcload: "+format+"\n", args...)
	os.Exit(1)
}
