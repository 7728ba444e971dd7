package memmodel

import (
	"math"
	"testing"

	"repro/internal/harness"
)

func TestNewKernelSizing(t *testing.T) {
	k := NewKernel("a", 1024)
	if k.WorkingSetBytes() != 1024 {
		t.Errorf("working set %d, want 1024", k.WorkingSetBytes())
	}
	// Sub-word sizes clamp to one word.
	k = NewKernel("a", 3)
	if k.WorkingSetBytes() != 8 {
		t.Errorf("working set %d, want 8", k.WorkingSetBytes())
	}
}

func TestKernelRunMutatesData(t *testing.T) {
	k := NewKernel("a", 256)
	before := append([]float64(nil), k.Data...)
	k.Run()
	changed := false
	for i := range before {
		if k.Data[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("Run did not touch the working set")
	}
	if k.sink == 0 {
		t.Error("sink not accumulated; loop may be eliminable")
	}
}

func TestPairWorkloadKernelGroups(t *testing.T) {
	p := &PairWorkload{A: NewKernel("A", 64), B: NewKernel("B", 64)}
	pre, loop, post := p.Kernels()
	if pre != nil || post != nil {
		t.Error("pair workload should have no pre/post kernels")
	}
	if len(loop) != 2 || loop[0] != "A" || loop[1] != "B" {
		t.Errorf("loop = %v", loop)
	}
}

func TestPairWorkloadMeasuresPositiveTimes(t *testing.T) {
	p := &PairWorkload{A: NewKernel("A", 4096), B: NewKernel("B", 4096), MinBlockBytes: 1 << 20}
	o := harness.Options{Blocks: 2}
	for _, w := range [][]string{{"A"}, {"B"}, {"A", "B"}} {
		v, err := p.MeasureWindow(w, o)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Errorf("window %v measured %v", w, v)
		}
	}
	if _, err := p.MeasureWindow([]string{"Z"}, o); err == nil {
		t.Error("unknown kernel should fail")
	}
}

func TestPairWorkloadActualScalesWithTrips(t *testing.T) {
	p := &PairWorkload{A: NewKernel("A", 4096), B: NewKernel("B", 4096), MinBlockBytes: 1 << 20}
	o := harness.Options{Blocks: 2}
	one, err := p.MeasureActual(1, o)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := p.MeasureActual(10, o)
	if err != nil {
		t.Fatal(err)
	}
	// Roughly 10x, generously bounded because timing is real.
	if ten < 3*one || ten > 40*one {
		t.Errorf("trips scaling off: 1 trip %v, 10 trips %v", one, ten)
	}
}

func TestGeometricSizes(t *testing.T) {
	sizes := GeometricSizes(1024, 1024*1024, 11)
	if len(sizes) != 11 {
		t.Fatalf("got %d sizes", len(sizes))
	}
	if sizes[0] != 1024 {
		t.Errorf("first size %d", sizes[0])
	}
	if math.Abs(float64(sizes[10])-1024*1024) > 1024 {
		t.Errorf("last size %d", sizes[10])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Errorf("sizes not increasing at %d: %v", i, sizes)
		}
	}
	// Degenerate parameters collapse to a single size.
	if got := GeometricSizes(100, 50, 5); len(got) != 1 {
		t.Errorf("degenerate sweep = %v", got)
	}
}

func TestTransitionsDetector(t *testing.T) {
	pts := []SweepPoint{
		{Bytes: 1, C: 1.0}, {Bytes: 2, C: 1.01}, {Bytes: 4, C: 1.02}, // plateau 1
		{Bytes: 8, C: 1.5}, {Bytes: 16, C: 1.52}, // jump, plateau 2
		{Bytes: 32, C: 1.05}, {Bytes: 64, C: 1.04}, // drop, plateau 3
	}
	idx := Transitions(pts, 0.2)
	if len(idx) != 2 || idx[0] != 3 || idx[1] != 5 {
		t.Errorf("transitions = %v, want [3 5]", idx)
	}
	// A flat series has none.
	if got := Transitions(pts[:3], 0.2); len(got) != 0 {
		t.Errorf("flat series transitions = %v", got)
	}
	if got := Transitions(nil, 0.1); got != nil {
		t.Errorf("empty series transitions = %v", got)
	}
}

// A sweep with one jump has two plateaus, and FitStep's segments carry
// each plateau's mean coupling.
func TestPlateaus(t *testing.T) {
	pts := []SweepPoint{
		{C: 1.0}, {C: 1.0},
		{C: 2.0}, {C: 2.0},
	}
	ps := plateauMeans(t, pts, 0.5)
	if len(ps) != 2 || math.Abs(ps[0]-1) > 1e-12 || math.Abs(ps[1]-2) > 1e-12 {
		t.Errorf("plateaus = %v", ps)
	}
	if _, err := FitStep(nil, nil, 0.5); err == nil {
		t.Error("an empty sweep has no plateaus: FitStep(nil) should error")
	}
}

func TestSweepSmallSmoke(t *testing.T) {
	// Tiny sweep with minimal streaming volume: checks plumbing, not
	// cache physics (which belongs to the bench harness).
	pts, err := Sweep([]int{1 << 10, 1 << 12}, harness.Options{Blocks: 2}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.C <= 0 || math.IsNaN(p.C) || math.IsInf(p.C, 0) {
			t.Errorf("degenerate coupling %v at %d bytes", p.C, p.Bytes)
		}
	}
}

func TestSharedKernelAliasesOwner(t *testing.T) {
	a := NewKernel("A", 1024)
	b := NewSharedKernel("B", a)
	if b.WorkingSetBytes() != a.WorkingSetBytes() {
		t.Error("shared kernel should match owner's working set")
	}
	before := a.Data[0]
	b.Run()
	if a.Data[0] == before {
		t.Error("shared kernel should mutate the owner's array")
	}
}

func TestSweepSharedSmoke(t *testing.T) {
	pts, err := SweepShared([]int{1 << 10, 1 << 12}, harness.Options{Blocks: 2}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.C <= 0 || math.IsNaN(p.C) {
			t.Errorf("degenerate coupling %v", p.C)
		}
	}
}
