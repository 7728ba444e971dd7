package core

import (
	"math"
	"testing"
)

func TestPairCoupling(t *testing.T) {
	// Eq. 1: C_ij = P_ij / (P_i + P_j).
	c, err := PairCoupling(1.8, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0.9 {
		t.Errorf("C = %v, want 0.9", c)
	}
}

func TestCouplingChain(t *testing.T) {
	// Eq. 2 with a chain of three.
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["A"], m.Isolated["B"], m.Isolated["C"] = 1, 1, 1
	m.Window["A|B|C"] = 3.3
	wc, err := m.CouplingOf([]string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wc.C-1.1) > 1e-12 {
		t.Errorf("C = %v, want 1.1", wc.C)
	}
}

func TestCouplingErrors(t *testing.T) {
	m := Measurements{Isolated: map[string]float64{}, Window: map[string]float64{}}
	m.Isolated["A"], m.Isolated["Z"] = 1, 0
	m.Window[""] = 1
	if _, err := m.CouplingOf(nil); err == nil {
		t.Error("empty window should fail")
	}
	m.Window["Z|Z"] = 1
	if _, err := m.CouplingOf([]string{"Z", "Z"}); err == nil {
		t.Error("zero expectation should fail")
	}
	if _, err := PairCoupling(1, 0, 0); err == nil {
		t.Error("zero pair expectation should fail")
	}
	m.Window["A"] = -1
	if _, err := m.CouplingOf([]string{"A"}); err == nil {
		t.Error("negative chained measurement should fail")
	}
	if _, err := PairCoupling(-1, 1, 1); err == nil {
		t.Error("negative chained pair measurement should fail")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		c, tol float64
		want   Regime
	}{
		{0.8, 0.02, Constructive},
		{1.0, 0.02, Neutral},
		{0.99, 0.02, Neutral},
		{1.01, 0.02, Neutral},
		{1.2, 0.02, Destructive},
		{0.999, 0, Constructive},
		{1.0, -5, Neutral}, // negative tolerance clamps to zero
	}
	for _, c := range cases {
		if got := Classify(c.c, c.tol); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.c, c.tol, got, c.want)
		}
	}
}

func TestRegimeString(t *testing.T) {
	if Constructive.String() != "constructive" || Neutral.String() != "neutral" || Destructive.String() != "destructive" {
		t.Error("regime names wrong")
	}
	if Regime(42).String() != "Regime(42)" {
		t.Errorf("unknown regime: %s", Regime(42))
	}
}

func TestWindowCouplingAccessors(t *testing.T) {
	wc := WindowCoupling{Window: []string{"A", "B"}, Chained: 1.8, Expected: 2.0, C: 0.9}
	if wc.Key() != "A|B" {
		t.Errorf("Key = %q", wc.Key())
	}
	if wc.Regime(0.02) != Constructive {
		t.Errorf("Regime = %v", wc.Regime(0.02))
	}
}
