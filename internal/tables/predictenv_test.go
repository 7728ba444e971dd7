package tables

import (
	"context"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/npb"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/predict"
)

func TestParseLattice(t *testing.T) {
	lat, err := ParseLattice("bench=BT&grid=6&procs=4&trips=2&blocks=2 ; bench=BT&grid=8&procs=4&trips=2&blocks=2")
	if err != nil {
		t.Fatalf("ParseLattice: %v", err)
	}
	if len(lat) != 2 {
		t.Fatalf("lattice = %d points, want 2", len(lat))
	}
	q := lat[0]
	if q.Bench != "BT" || q.Grid != 6 || q.Procs != 4 || q.Trips != 2 || q.Blocks != 2 || q.Passes != 1 {
		t.Fatalf("first point = %+v, want the spec's values with serve defaults", q)
	}

	// A point is read at the chain lengths of the query it answers, so
	// an item naming its own is refused.
	if _, err := ParseLattice("bench=BT&grid=6;bench=BT&grid=8&chains=2,5"); err == nil || !strings.Contains(err.Error(), "names chains") {
		t.Fatalf("item naming chains: err = %v, want it refused", err)
	}

	// Defaults mirror the serving layer: an empty item inherits BT.S.p4.
	lat, err = ParseLattice("grid=6")
	if err != nil {
		t.Fatalf("ParseLattice(defaults): %v", err)
	}
	if q := lat[0]; q.Bench != "BT" || string(q.Class) != "S" || q.Procs != 4 || q.Trips != DefaultTrips("S") || q.Blocks != 3 {
		t.Fatalf("defaulted point = %+v, want serve's defaults", q)
	}

	// The last three are what a served query rejects too: a typo'd name,
	// an empty value, and the serving layer's own backend pin.
	for _, bad := range []string{"", " ; ", "bench=XX&grid=6", "grid=-1", "chains=1", "procs=zero",
		"bench=BT&gird=6", "bench=BT&chains=", "grid=6&backend=cached"} {
		if _, err := ParseLattice(bad); err == nil {
			t.Fatalf("ParseLattice(%q) should fail", bad)
		}
	}
}

func TestNewBackendNames(t *testing.T) {
	for _, n := range BackendNames {
		b, err := NewBackend(n, BackendConfig{})
		if err != nil {
			t.Fatalf("NewBackend(%q): %v", n, err)
		}
		if b.Name() != n {
			t.Fatalf("backend %q reports name %q", n, b.Name())
		}
	}
	if _, err := NewBackend("psychic", BackendConfig{}); err == nil || !strings.Contains(err.Error(), "psychic") {
		t.Fatalf("unknown backend error = %v, want it named", err)
	}
}

// The cached backend built by NewBackend must refuse on a cold cache and
// answer after the measured backend warms the same cache — the cross-
// binary cache-key compatibility contract, exercised within one process.
func TestBackendCacheKeyCompatibility(t *testing.T) {
	cfg := BackendConfig{Cache: plan.NewCache()}
	q := predict.Query{Bench: "BT", Class: "S", Procs: 4, Chains: []int{2}, Trips: 1, Blocks: 1, Passes: 1, Grid: 6}

	cached, err := NewBackend("cached", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cached.Predict(context.Background(), q); err == nil {
		t.Fatal("cold cached backend should refuse")
	}

	measured, err := NewBackend("measured", cfg)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := measured.Predict(context.Background(), q)
	if err != nil {
		t.Fatalf("measured: %v", err)
	}
	if mp.Provenance != predict.ProvMeasured || mp.Study == nil || mp.Study.Actual <= 0 {
		t.Fatalf("measured prediction = %+v, want a real study", mp)
	}

	cp, err := cached.Predict(context.Background(), q)
	if err != nil {
		t.Fatalf("cached after warm: %v", err)
	}
	if cp.Provenance != predict.ProvCached {
		t.Fatalf("provenance = %q, want cached", cp.Provenance)
	}
	if cp.Value != mp.Value {
		t.Fatalf("cached value %g != measured value %g: cache keys disagree", cp.Value, mp.Value)
	}
}

// The workload name and the world digest are written into every job key
// on disk, and the engine renders both per served query. Their bytes are
// pinned here, so a directory an older campaign warmed keeps answering
// whatever renders them.
func TestEngineKeyInputsKeepTheirBytes(t *testing.T) {
	eng, err := BackendConfig{}.Engine(predict.Query{Bench: "bt", Class: "W", Procs: 16, Chains: []int{2}, Trips: 1, Blocks: 1, Passes: 1, Grid: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Workload.Name(), "BT.W.16"; got != want {
		t.Errorf("workload name %q, want %q", got, want)
	}
	if got, want := eng.Opts.WorldDigest, "grid=12 x 12 x 12"; got != want {
		t.Errorf("world digest %q, want %q", got, want)
	}
}

// The injected Run override must replace the engine path entirely.
func TestBackendConfigRunOverride(t *testing.T) {
	called := false
	cfg := BackendConfig{Run: func(ctx context.Context, q predict.Query) (*harness.Study, error) {
		called = true
		w := &harness.Synthetic{SyntheticName: "stub", Loop: []string{"a", "b"},
			Base: map[string]float64{"a": 1, "b": 2}}
		return harness.Engine{Workload: w}.Run(q.Trips, q.Chains)
	}}
	b, err := NewBackend("measured", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Predict(context.Background(), predict.Query{Trips: 2, Chains: []int{2}}); err != nil {
		t.Fatalf("override predict: %v", err)
	}
	if !called {
		t.Fatal("Run override was not used")
	}
}

// TestCampaignRecyclesWorlds runs class-S studies of the three solvers
// through the measured backend at Parallel 2 and reads the counters the
// harness keeps about their worlds: a study builds rank state for at most
// as many worlds as run at once and every other world rebinds it, and the
// number of timed regions a garbage collection completed under — what the
// forced collection ahead of every world used to be trusted to prevent —
// is on record beside the number timed.
func TestCampaignRecyclesWorlds(t *testing.T) {
	const parallel = 2
	reg := obs.NewRegistry()
	run := BackendConfig{Cache: plan.NewCache(), Parallel: parallel, Metrics: reg}.StudyRunner()
	studies, executed := 0, 0
	for _, bench := range []string{"BT", "SP", "LU"} {
		q := predict.Query{Bench: bench, Class: "S", Procs: 4, Chains: []int{2, 3}, Trips: 2, Blocks: 3, Passes: 1}
		st, err := run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q.Workload(), err)
		}
		if !st.Health.Clean() {
			t.Errorf("%s: unclean health %+v", q.Workload(), st.Health)
		}
		studies++
		executed += st.Exec.Executed
	}
	snap := reg.Snapshot()
	count := func(name string) int {
		c, _ := snap.Counter(name)
		return int(c.Value)
	}
	fresh, recycled := count("harness.worlds.fresh"), count("harness.worlds.recycled")
	if fresh+recycled != executed {
		t.Errorf("%d fresh + %d recycled worlds, want the %d measurements executed", fresh, recycled, executed)
	}
	if fresh < studies || fresh > studies*parallel {
		t.Errorf("%d worlds built their state, want %d..%d: one factory a study, one set a worker", fresh, studies, studies*parallel)
	}
	if recycled == 0 {
		t.Error("no world rebound another's state")
	}
	timed := count("harness.blocks.timed") + count("harness.measure.actual.count")
	t.Logf("%d worlds (%d built, %d recycled); a collection completed under %d of %d timed regions",
		executed, fresh, recycled, count("harness.timed.gc_overlapped"), timed)
}

// worldCounts reads how many worlds built and rebound their rank state.
func worldCounts(reg *obs.Registry) (fresh, recycled int64) {
	return reg.Counter("harness.worlds.fresh").Value(), reg.Counter("harness.worlds.recycled").Value()
}

// TestPoolOutlivesTheStudy: one runner, three studies. The second study of
// a configuration builds nothing — its first world rebinds what the first
// study left — and a study answered from the cache never asks the pool.
func TestPoolOutlivesTheStudy(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := BackendConfig{Cache: plan.NewCache(), Metrics: reg}.Pooled()
	run := cfg.StudyRunner()
	q := predict.Query{Bench: "BT", Class: "S", Grid: 6, Procs: 4, Chains: []int{2}, Trips: 1, Blocks: 1, Passes: 1}
	for _, chains := range [][]int{{2}, {3}} {
		q.Chains = chains
		if _, err := run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	if fresh, recycled := worldCounts(reg); fresh != 1 || recycled == 0 {
		t.Errorf("two studies of one configuration: %d worlds built, %d rebound; want 1 and the rest", fresh, recycled)
	}

	// The same two studies again, warm, through a config with a pool of
	// its own: no world runs, so the pool must still be empty — it hands
	// back whatever factory it is shown first.
	warm := BackendConfig{Cache: cfg.Cache, Metrics: reg}.Pooled()
	if st, err := warm.StudyRunner()(context.Background(), q); err != nil || st.Exec.Executed != 0 {
		t.Fatalf("warm study: executed %d, %v", st.Exec.Executed, err)
	}
	eng, err := warm.Engine(q)
	if err != nil {
		t.Fatal(err)
	}
	w := eng.Workload.(*harness.NPBWorkload)
	other, err := NewWorkload(q.Bench, q.Class, w.PoolKey.Problem, q.Procs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Pool.Factory(w.PoolKey, other.Factory); got != other.Factory {
		t.Error("a study answered from the cache put a factory in the pool")
	}
}

// TestPoolEvictionRebuilds: with room for one of two configurations, going
// back to the first builds its state again — and what the cache answers
// for it has not moved.
func TestPoolEvictionRebuilds(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := BackendConfig{Cache: plan.NewCache(), Metrics: reg, pool: npb.NewPool(600)} // 8³ = 512 fits, 8³ + 6³ does not
	run := cfg.StudyRunner()
	study := func(grid int, chains ...int) string {
		t.Helper()
		st, err := run(context.Background(), predict.Query{Bench: "LU", Class: "S", Grid: grid, Procs: 4, Chains: chains, Trips: 1, Blocks: 1, Passes: 1})
		if err != nil {
			t.Fatal(err)
		}
		return harness.RenderStudy(st)
	}
	first := study(8, 2)
	study(6, 2) // pushes 8³ out
	if fresh, _ := worldCounts(reg); fresh != 2 {
		t.Fatalf("two configurations built state %d times", fresh)
	}
	study(8, 3)
	if fresh, _ := worldCounts(reg); fresh != 3 {
		t.Errorf("%d worlds built state, want 3: the evicted configuration builds again", fresh)
	}
	if again := study(8, 2); again != first {
		t.Errorf("the first study renders differently after its state was evicted:\n%s\nwas\n%s", again, first)
	}
}
