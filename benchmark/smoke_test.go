package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke scale, untraced and traced,
// with every correctness check on. It asserts no timing: it keeps the
// benchmark compiling against the packages it drives and its checks
// honest, not the numbers.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := runCfg{workload: name, seed: 7, seconds: 25, smoke: true, traced: traced, workDir: t.TempDir(), outDir: t.TempDir()}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", name, traced, res.failed, res.attempted, res.notes)
			}
			if !traced {
				for _, d := range endToEnd {
					if v, ok := res.e2e[d.name]; !ok || !positive(v) {
						t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, d.name, v)
					}
				}
				continue
			}
			for _, n := range layerNames() {
				if v, ok := res.layers[n]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: per-layer metric %s = %v, want a finite number", name, n, v)
				}
			}
			var file struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			data, err := os.ReadFile(cfg.tracePath())
			if err != nil {
				t.Fatalf("%s: span file: %v", name, err)
			}
			if err := json.Unmarshal(data, &file); err != nil || len(file.TraceEvents) == 0 {
				t.Errorf("%s: span file holds %d events (err %v)", name, len(file.TraceEvents), err)
			}
		}
	}
}

// schedule is everything a seed decides: each client's first requests
// on the serving workloads, and the cold sweep's order.
func schedule(seed uint64) (reqs []request, cold []int) {
	for _, st := range streamsFor(seed, len(warmKeys(false)), fleetSize, true) {
		for i := 0; i < 2000; i++ {
			reqs = append(reqs, st.next())
		}
	}
	return reqs, coldOrder(seed, coldGroups(false))
}

func TestSeedDecidesTheSchedule(t *testing.T) {
	reqsA, coldA := schedule(42)
	reqsB, coldB := schedule(42)
	if !reflect.DeepEqual(reqsA, reqsB) || !reflect.DeepEqual(coldA, coldB) {
		t.Error("the same seed gave two different schedules")
	}
	reqsC, coldC := schedule(43)
	if reflect.DeepEqual(reqsA, reqsC) || reflect.DeepEqual(coldA, coldC) {
		t.Error("two seeds gave the same schedule")
	}

	// The cold order is a permutation that keeps every group's own order.
	groups := coldGroups(false)
	seen := make([]bool, len(flatten(groups)))
	last := map[int]int{}
	for _, k := range coldA {
		if seen[k] {
			t.Fatalf("cold key %d asked twice", k)
		}
		seen[k] = true
		g := k / len(groups[0])
		if prev, ok := last[g]; ok && k < prev {
			t.Fatalf("cold key %d of group %d asked after key %d", k, g, prev)
		}
		last[g] = k
	}
	for k, ok := range seen {
		if !ok {
			t.Fatalf("cold key %d never asked", k)
		}
	}
}

// TestServersSeeOnlyRequests drives a recording server through the
// load generator: what arrives must be members of the key population
// and nothing else — no seed, no header of the benchmark's own.
func TestServersSeeOnlyRequests(t *testing.T) {
	keys := warmKeys(true)
	var mu sync.Mutex
	var urls []string
	headers := map[string]bool{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		urls = append(urls, r.URL.String())
		for h := range r.Header {
			headers[h] = true
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer ts.Close()
	tg := newTargets("rec", []string{ts.URL}, keys)
	chk := newChecker() // the canned body fails its checks; only what arrived matters here
	closedLoop(tg, streamsFor(99, len(keys), 1, true), 50*time.Millisecond, 2, chk, nil)
	openLoop(tg, streamsFor(99, len(keys), 1, true), 500, 50*time.Millisecond, 2, nil, chk)

	population := map[string]bool{}
	for e := endpoint(0); e < numEndpoints; e++ {
		for _, k := range keys {
			population[pathFor(e, k)] = true
		}
	}
	if len(urls) == 0 {
		t.Fatal("the recording server saw no request")
	}
	for _, u := range urls {
		if !population[u] {
			t.Errorf("server received %q, which is not in the population", u)
		}
	}
	for h := range headers {
		if h != "User-Agent" && h != "Accept-Encoding" {
			t.Errorf("server received header %s", h)
		}
	}
}

// TestContractFile holds BENCHMARK.json to the tables in metrics.go and
// to the limits the driver states for it.
func TestContractFile(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type contract struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	var want contract
	for _, d := range endToEnd {
		b := d.bound
		want.EndToEnd = append(want.EndToEnd, metric{d.name, d.unit, d.better, &b})
	}
	for _, n := range layerNames() {
		better := "lower"
		if layerHigher[n] {
			better = "higher"
		}
		want.PerLayer = append(want.PerLayer, metric{Name: n, Unit: layerUnits[n], Better: better})
	}
	sort.Slice(got.PerLayer, func(i, j int) bool { return got.PerLayer[i].Name < got.PerLayer[j].Name })
	if !reflect.DeepEqual(got.EndToEnd, want.EndToEnd) {
		blob, _ := json.Marshal(want.EndToEnd)
		t.Errorf("end_to_end differs from metrics.go; want\n%s", blob)
	}
	if !reflect.DeepEqual(got.PerLayer, want.PerLayer) {
		blob, _ := json.Marshal(want.PerLayer)
		t.Errorf("per_layer differs from metrics.go; want\n%s", blob)
	}
	var names []string
	for _, w := range got.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(got.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(got.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", got.Command, got.Paths)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
	if len(got.PerLayer) > 128 || len(got.EndToEnd) > 16 || len(data) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d end-to-end, %d bytes: over the driver's limits", len(got.PerLayer), len(got.EndToEnd), len(data))
	}
	nameRE, unitRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`), regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	for _, m := range append(append([]metric{}, got.EndToEnd...), got.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || used[m.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name or unit", m.Name, m.Unit)
		}
		used[m.Name] = true
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v", m.Name, *m.Bound)
		}
	}
	if !used["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestAliasesFollowTheHeadline pins the stand-in rule: a metric a
// workload does not define reads as that workload's headline wait in
// the metric's own unit, and a rate as operations per second at it.
func TestAliasesFollowTheHeadline(t *testing.T) {
	e2e := map[string]float64{"setup_s": 1.5, "study_bt_s": 4, "study_bt_par2_s": 3, "study_lu_s": 0.5}
	if err := fillAliases("campaign", e2e); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"p50_us": 4e6, "cold_p50_ms": 4e3, "cold_sweep_s": 4, "rps": 0.25, "study_lu_s": 0.5, "setup_s": 1.5} {
		if math.Abs(e2e[name]-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, e2e[name], want)
		}
	}
	if err := fillAliases("campaign", map[string]float64{"setup_s": 1}); err == nil {
		t.Error("a run that did not measure its own metrics was accepted")
	}
}
