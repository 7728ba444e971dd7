package npb_test

import (
	"testing"

	"repro/internal/npb"
	"repro/internal/npb/bt"
	"repro/internal/npb/ft"
	"repro/internal/npb/lu"
	"repro/internal/npb/sp"
)

func TestProblemTables(t *testing.T) {
	// Paper Table 1 (BT), Table 5 (SP), Table 7 (LU).
	for _, tc := range []struct {
		b    *npb.Benchmark
		want map[npb.Class]string
	}{
		{&bt.Benchmark, map[npb.Class]string{npb.ClassS: "12 x 12 x 12", npb.ClassW: "32 x 32 x 32", npb.ClassA: "64 x 64 x 64"}},
		{&sp.Benchmark, map[npb.Class]string{npb.ClassW: "36 x 36 x 36", npb.ClassA: "64 x 64 x 64", npb.ClassB: "102 x 102 x 102"}},
		{&lu.Benchmark, map[npb.Class]string{npb.ClassW: "33 x 33 x 33", npb.ClassA: "64 x 64 x 64", npb.ClassB: "102 x 102 x 102"}},
	} {
		for c, want := range tc.want {
			p, err := tc.b.Problem(c)
			if err != nil || p.String() != want {
				t.Errorf("%s %s = %q (%v), want %q", tc.b.Name, c, p.String(), err, want)
			}
		}
	}
}

func TestBTTripCountsMatchPaper(t *testing.T) {
	s, _ := bt.Benchmark.Problem(npb.ClassS)
	w, _ := bt.Benchmark.Problem(npb.ClassW)
	a, _ := bt.Benchmark.Problem(npb.ClassA)
	if s.Trips != 60 || w.Trips != 200 || a.Trips != 200 {
		t.Errorf("BT trips = %d/%d/%d, paper says 60/200/200", s.Trips, w.Trips, a.Trips)
	}
}

func TestUnknownClassErrors(t *testing.T) {
	for _, b := range []*npb.Benchmark{&bt.Benchmark, &sp.Benchmark, &lu.Benchmark, &ft.Benchmark} {
		if _, err := b.Problem("Z"); err == nil {
			t.Errorf("unknown %s class should fail", b.Name)
		}
	}
}
