package tables

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"strings"
	"testing"

	"repro/internal/npb"
	"repro/internal/plan"
)

func TestAllCoversEveryPaperTable(t *testing.T) {
	// The 16 paper tables come first and in paper order ("4.1" is how
	// benchmark/campaign.go finds the sweep); the ablations and extensions
	// follow.
	want := []string{"1", "2a", "2b", "3a", "3b", "4a", "4b", "5", "6a", "6b", "6c", "7", "8a", "8b", "8c", "4.1",
		"ablation-chain", "ablation-weighting", "ablation-net", "ablation-trim", "ext-ft", "ext-shared"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments, want %d", len(all), len(want))
	}
	seen := map[string]bool{}
	for i, id := range want {
		if all[i].ID != id {
			t.Errorf("experiment %d has ID %q, want %q", i, all[i].ID, id)
		}
		if seen[all[i].ID] {
			t.Errorf("ID %q appears twice: Find would never reach the second", all[i].ID)
		}
		seen[all[i].ID] = true
	}
}

func TestFind(t *testing.T) {
	e, ok := Find("4b")
	if !ok || e.Bench != "BT" || e.Class != npb.ClassA || e.Kind != Predictions {
		t.Errorf("Find(4b) = %+v, %v", e, ok)
	}
	if _, ok := Find("99"); ok {
		t.Error("Find(99) should fail")
	}
}

func TestExperimentShapesMatchPaper(t *testing.T) {
	cases := map[string]struct {
		procs  []int
		chains []int
	}{
		"2a": {[]int{4, 9, 16}, []int{2}},
		"3a": {[]int{4, 9, 16, 25}, []int{3}},
		"4a": {[]int{4, 9, 16, 25}, []int{4}},
		"6a": {[]int{4, 9, 16, 25}, []int{4, 5}},
		"8a": {[]int{4, 8, 16, 32}, []int{3}},
	}
	for id, want := range cases {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("missing table %s", id)
		}
		if len(e.Procs) != len(want.procs) {
			t.Errorf("table %s procs %v, want %v", id, e.Procs, want.procs)
			continue
		}
		for i := range want.procs {
			if e.Procs[i] != want.procs[i] {
				t.Errorf("table %s procs %v, want %v", id, e.Procs, want.procs)
			}
		}
		for i := range want.chains {
			if e.ChainLens[i] != want.chains[i] {
				t.Errorf("table %s chains %v, want %v", id, e.ChainLens, want.chains)
			}
		}
	}
}

func TestDataSetTables(t *testing.T) {
	for _, id := range []string{"1", "5", "7"} {
		e, _ := Find(id)
		res, err := e.Run(Scale{})
		if err != nil {
			t.Fatalf("table %s: %v", id, err)
		}
		if !strings.Contains(res.Text, "Data Set Size") {
			t.Errorf("table %s missing header:\n%s", id, res.Text)
		}
	}
	// Table 1 must show the paper's exact BT sizes.
	e, _ := Find("1")
	res, err := e.Run(Scale{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sz := range []string{"12 x 12 x 12", "32 x 32 x 32", "64 x 64 x 64"} {
		if !strings.Contains(res.Text, sz) {
			t.Errorf("table 1 missing %q:\n%s", sz, res.Text)
		}
	}
}

// TestFastScaleBuildsEveryTable walks every experiment's processor
// counts at paper -fast's scale and builds each study's engine — a grid
// some tiling cannot cut fails here — without running a world. The grid
// stays 8³ wherever the tiling takes it, so a cache warmed at 8³ stays
// warm, and a grid the caller sets wins.
func TestFastScaleBuildsEveryTable(t *testing.T) {
	s := Scale{}.Fast()
	for _, e := range All() {
		for _, procs := range e.Procs {
			if _, err := e.engineAt(s, procs); err != nil {
				t.Errorf("table %s at %d procs: %v", e.ID, procs, err)
			}
			want := fastGrid
			if e.Bench == "SP" && procs == 25 {
				want = 10 // SP's 2-deep halo over 5 ranks a side
			}
			if got := s.gridAt(e.Bench, e.Class, procs); got != want {
				t.Errorf("table %s at %d procs runs a %d³ grid, want %d³", e.ID, procs, got, want)
			}
		}
	}
	if got := (Scale{GridOverride: 12}).Fast().gridAt("SP", npb.ClassW, 25); got != 12 {
		t.Errorf("-fast -grid 12 runs a %d³ grid, want the 12³ asked for", got)
	}
}

// smokeScale shrinks everything so a full study finishes in seconds.
func smokeScale() Scale {
	return Scale{Trips: 2, Blocks: 2, Passes: 1, GridOverride: 8}
}

func TestCouplingTableSmoke(t *testing.T) {
	e, _ := Find("2a")
	e.Procs = []int{1, 4} // trim for test speed
	res, err := e.Run(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Studies) != 2 {
		t.Fatalf("expected 2 studies, got %d", len(res.Studies))
	}
	// One row per pairwise window: the BT loop ring has 5 kernels.
	if got := strings.Count(res.Text, "\n"); got < 7 {
		t.Errorf("suspiciously small table:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "Copy_Faces, X_Solve") {
		t.Errorf("missing paper-style window label:\n%s", res.Text)
	}
}

func TestPredictionTableSmoke(t *testing.T) {
	e, _ := Find("2b")
	e.Procs = []int{1}
	res, err := e.Run(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"Actual", "Summation", "Coupling: 2 kernels"} {
		if !strings.Contains(res.Text, row) {
			t.Errorf("missing row %q:\n%s", row, res.Text)
		}
	}
}

// TestStudyCacheSharedBetweenPairedTables: tables 2a and 2b given one
// cache measure each world once, and a Scale without one measures every
// job again.
func TestStudyCacheSharedBetweenPairedTables(t *testing.T) {
	a, _ := Find("2a")
	b, _ := Find("2b")
	a.Procs = []int{1}
	b.Procs = []int{1}
	s := smokeScale()
	s.Cache = plan.NewCache()
	resA, err := a.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if hits := resA.Studies[0].Study.Exec.CacheHits; hits != 0 {
		t.Errorf("first campaign on a new cache reported %d cache hits", hits)
	}
	resB, err := b.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// The b table re-plans the same campaign and must be served entirely
	// from a's measurements: zero fresh world executions, every job a hit.
	eb := resB.Studies[0].Study.Exec
	if eb.Executed != 0 || eb.CacheHits != eb.Planned {
		t.Errorf("paired table re-ran measurements: %+v", eb)
	}
	if got, want := resB.Studies[0].Study.Actual, resA.Studies[0].Study.Actual; got != want {
		t.Errorf("cached campaign changed the actual time: %v != %v", got, want)
	}
	resC, err := b.Run(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if ec := resC.Studies[0].Study.Exec; ec.CacheHits != 0 || ec.Executed != ec.Planned {
		t.Errorf("a Scale without a cache reused measurements: %+v", ec)
	}
}

// The trimming ablation's two studies differ in the block aggregation and
// in nothing else: the raw-mean study re-measures its windows untrimmed
// and shares the base study's actual runs through the job cache.
func TestTrimAblationVariesOnlyTheAggregation(t *testing.T) {
	e, _ := Find("ablation-trim")
	res, err := e.Run(Scale{Trips: 2, Blocks: 3, GridOverride: 8})
	if err != nil {
		t.Fatal(err)
	}
	var trims []float64
	for _, ps := range res.Studies {
		for _, r := range ps.Study.Provenance {
			if r.Kind == plan.KindWindow {
				trims = append(trims, r.TrimFrac)
				break
			}
		}
	}
	if len(trims) != 2 || trims[0] <= 0 || trims[1] != 0 {
		t.Errorf("effective window trims %v, want the default then the raw mean's 0", trims)
	}
	if base, raw := res.Studies[0].Study, res.Studies[1].Study; base.Actual != raw.Actual {
		t.Errorf("the two rows compare against different actual times: %v, %v", base.Actual, raw.Actual)
	}
}

func TestLUTableSmoke(t *testing.T) {
	e, _ := Find("8a")
	e.Procs = []int{1, 2}
	res, err := e.Run(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Coupling: 3 kernels") {
		t.Errorf("missing coupling row:\n%s", res.Text)
	}
}

func TestSPTableSmoke(t *testing.T) {
	e, _ := Find("6a")
	e.Procs = []int{1}
	res, err := e.Run(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"Coupling: 4 kernels", "Coupling: 5 kernels"} {
		if !strings.Contains(res.Text, row) {
			t.Errorf("missing row %q:\n%s", row, res.Text)
		}
	}
}

func TestCacheSweepSmoke(t *testing.T) {
	e, _ := Find("4.1")
	res, err := e.Run(Scale{Blocks: 2, GridOverride: 1}) // smoke axis
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) == 0 {
		t.Fatal("no sweep points")
	}
	if !strings.Contains(res.Text, "transitions") {
		t.Errorf("missing transition summary:\n%s", res.Text)
	}
}

func TestDefaultTrips(t *testing.T) {
	if DefaultTrips(npb.ClassS) != 60 {
		t.Error("class S should run the paper's real trip count")
	}
	for _, c := range []npb.Class{npb.ClassW, npb.ClassA, npb.ClassB} {
		if DefaultTrips(c) <= 0 {
			t.Errorf("class %s trips not positive", c)
		}
	}
}

func TestPrettyKernel(t *testing.T) {
	cases := map[string]string{
		"COPY_FACES":     "Copy_Faces",
		"X_SOLVE":        "X_Solve",
		"INITIALIZATION": "Initialization",
		"SSOR_LT":        "Ssor_Lt",
	}
	for in, want := range cases {
		if got := prettyKernel(in); got != want {
			t.Errorf("prettyKernel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestUnknownKindAndBench(t *testing.T) {
	e := Experiment{ID: "x", Bench: "NOPE", Kind: Kind(42)}
	if _, err := e.Run(Scale{}); err == nil {
		t.Error("unknown kind should fail")
	}
	e = Experiment{ID: "x", Bench: "NOPE", Kind: Predictions, Procs: []int{1}, ChainLens: []int{2}}
	if _, err := e.Run(Scale{}); err == nil {
		t.Error("unknown bench should fail")
	}
}

func TestNetModelScalePath(t *testing.T) {
	// A table run with the interconnect model attached must complete and
	// produce a distinct cache entry from the unmodeled run.
	e, _ := Find("8a")
	e.Procs = []int{2}
	s := smokeScale()
	s.Cache = plan.NewCache()
	plain, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	m := mpi.NetModel{Latency: 20 * time.Microsecond}
	s.Net = &m
	modeled, err := e.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Studies[0].Study == modeled.Studies[0].Study {
		t.Error("net-model run shared the unmodeled study cache entry")
	}
	// The world digest includes the net model, so none of the unmodeled
	// measurements may leak into the modeled campaign.
	if hits := modeled.Studies[0].Study.Exec.CacheHits; hits != 0 {
		t.Errorf("net-model run hit %d unmodeled cache entries", hits)
	}
}

func TestCouplingTableRowsFollowRingOrder(t *testing.T) {
	e, _ := Find("2a")
	e.Procs = []int{1}
	res, err := e.Run(smokeScale())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(res.Text, "\n")
	// Rows 2..6 are the five pairwise windows in ring order.
	wantOrder := []string{
		"Copy_Faces, X_Solve",
		"X_Solve, Y_Solve",
		"Y_Solve, Z_Solve",
		"Z_Solve, Add",
		"Add, Copy_Faces",
	}
	row := 0
	for _, line := range lines {
		if row < len(wantOrder) && strings.HasPrefix(line, wantOrder[row]) {
			row++
		}
	}
	if row != len(wantOrder) {
		t.Errorf("coupling rows not in ring order (matched %d):\n%s", row, res.Text)
	}
}

func TestPredictionTableIncludesFullRing(t *testing.T) {
	// The prediction tables carry the paper's L plus the full-ring L.
	for id, want := range map[string]string{
		"2b": "Coupling: 5 kernels",
		"6a": "Coupling: 6 kernels",
		"8a": "Coupling: 4 kernels",
	} {
		e, _ := Find(id)
		found := false
		for _, L := range e.ChainLens {
			_, loop := e.Bench, L
			_ = loop
			if fmt.Sprintf("Coupling: %d kernels", L) == want {
				found = true
			}
		}
		if !found {
			t.Errorf("table %s chain lengths %v missing %q", id, e.ChainLens, want)
		}
	}
}
