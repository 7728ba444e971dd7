package npb

import (
	"testing"
	"testing/quick"
)

func TestFieldIndexingRoundTrip(t *testing.T) {
	f := NewField(5, 4, 3, 2, 1)
	// Write distinct values everywhere (interior) and read them back.
	val := func(c, i, j, k int) float64 {
		return float64(c + 10*i + 100*j + 1000*k)
	}
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				for c := 0; c < f.NC; c++ {
					f.Set(c, i, j, k, val(c, i, j, k))
				}
			}
		}
	}
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				for c := 0; c < f.NC; c++ {
					if got := f.At(c, i, j, k); got != val(c, i, j, k) {
						t.Fatalf("At(%d,%d,%d,%d) = %v", c, i, j, k, got)
					}
				}
			}
		}
	}
}

func TestFieldGhostAddressing(t *testing.T) {
	f := NewField(2, 3, 3, 3, 1)
	// Ghost cells at every face must be addressable and independent.
	f.Set(0, -1, 0, 0, 7)
	f.Set(0, 3, 0, 0, 8)
	f.Set(1, 0, -1, 0, 9)
	f.Set(1, 0, 3, 0, 10)
	f.Set(0, 0, 0, -1, 11)
	f.Set(0, 0, 0, 3, 12)
	if f.At(0, -1, 0, 0) != 7 || f.At(0, 3, 0, 0) != 8 ||
		f.At(1, 0, -1, 0) != 9 || f.At(1, 0, 3, 0) != 10 ||
		f.At(0, 0, 0, -1) != 11 || f.At(0, 0, 0, 3) != 12 {
		t.Error("ghost cells not independently addressable")
	}
	// Interior untouched.
	if f.At(0, 0, 0, 0) != 0 {
		t.Error("interior polluted by ghost writes")
	}
}

func TestFieldStrides(t *testing.T) {
	f := NewField(3, 4, 5, 6, 2)
	if got := f.Idx(1, 0, 0) - f.Idx(0, 0, 0); got != f.StrideI() {
		t.Errorf("StrideI = %d, want %d", f.StrideI(), got)
	}
	if got := f.Idx(0, 1, 0) - f.Idx(0, 0, 0); got != f.StrideJ() {
		t.Errorf("StrideJ = %d, want %d", f.StrideJ(), got)
	}
	if got := f.Idx(0, 0, 1) - f.Idx(0, 0, 0); got != f.StrideK() {
		t.Errorf("StrideK = %d, want %d", f.StrideK(), got)
	}
}

func TestFieldAdd(t *testing.T) {
	f := NewField(1, 2, 2, 2, 0)
	f.Set(0, 1, 1, 1, 5)
	f.Add(0, 1, 1, 1, 2.5)
	if f.At(0, 1, 1, 1) != 7.5 {
		t.Errorf("Add result %v", f.At(0, 1, 1, 1))
	}
}

func TestFieldZeroAndClone(t *testing.T) {
	f := NewField(2, 3, 3, 3, 1)
	f.Set(0, 1, 1, 1, 42)
	g := f.Clone()
	if g.At(0, 1, 1, 1) != 42 {
		t.Error("Clone lost data")
	}
	g.Set(0, 1, 1, 1, 7)
	if f.At(0, 1, 1, 1) != 42 {
		t.Error("Clone aliases original")
	}
	f.Zero()
	if f.At(0, 1, 1, 1) != 0 {
		t.Error("Zero left data")
	}
}

func TestFieldCopyFrom(t *testing.T) {
	f := NewField(2, 3, 3, 3, 1)
	g := NewField(2, 3, 3, 3, 1)
	g.Set(1, 2, 2, 2, 9)
	f.CopyFrom(g)
	if f.At(1, 2, 2, 2) != 9 {
		t.Error("CopyFrom missed data")
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	f.CopyFrom(NewField(2, 4, 3, 3, 1))
}

func TestFieldInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid shape should panic")
		}
	}()
	NewField(0, 1, 1, 1, 0)
}

func TestPackUnpackFaces(t *testing.T) {
	f := NewField(2, 3, 4, 5, 1)
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				for c := 0; c < 2; c++ {
					f.Set(c, i, j, k, float64(c+2*i+10*j+100*k))
				}
			}
		}
	}
	// J faces.
	buf := make([]float64, f.Nx*f.Nz*f.NC)
	n := f.PackFaceJ(2, buf)
	if n != len(buf) {
		t.Fatalf("PackFaceJ packed %d, want %d", n, len(buf))
	}
	g := NewField(2, 3, 4, 5, 1)
	g.UnpackFaceJ(-1, buf)
	for k := 0; k < f.Nz; k++ {
		for i := 0; i < f.Nx; i++ {
			for c := 0; c < 2; c++ {
				if g.At(c, i, -1, k) != f.At(c, i, 2, k) {
					t.Fatalf("J face mismatch at i=%d k=%d c=%d", i, k, c)
				}
			}
		}
	}
	// K faces.
	buf = make([]float64, f.Nx*f.Ny*f.NC)
	f.PackFaceK(1, buf)
	g.UnpackFaceK(5, buf)
	for j := 0; j < f.Ny; j++ {
		for i := 0; i < f.Nx; i++ {
			for c := 0; c < 2; c++ {
				if g.At(c, i, j, 5) != f.At(c, i, j, 1) {
					t.Fatalf("K face mismatch at i=%d j=%d c=%d", i, j, c)
				}
			}
		}
	}
	// I faces.
	buf = make([]float64, f.Ny*f.Nz*f.NC)
	f.PackFaceI(0, buf)
	g.UnpackFaceI(-1, buf)
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for c := 0; c < 2; c++ {
				if g.At(c, -1, j, k) != f.At(c, 0, j, k) {
					t.Fatalf("I face mismatch at j=%d k=%d c=%d", j, k, c)
				}
			}
		}
	}
}

func TestPackFaceProperty(t *testing.T) {
	// Property: pack→unpack into the same plane of a fresh field is the
	// identity on that plane and leaves everything else zero.
	f := func(seed int64) bool {
		ff := NewField(3, 4, 4, 4, 1)
		for i := range ff.Data {
			ff.Data[i] = float64((seed+int64(i)*2654435761)%1000) / 7
		}
		buf := make([]float64, ff.Nx*ff.Nz*ff.NC)
		ff.PackFaceJ(1, buf)
		gg := NewField(3, 4, 4, 4, 1)
		gg.UnpackFaceJ(1, buf)
		for k := 0; k < ff.Nz; k++ {
			for i := 0; i < ff.Nx; i++ {
				for c := 0; c < 3; c++ {
					if gg.At(c, i, 1, k) != ff.At(c, i, 1, k) {
						return false
					}
					if gg.At(c, i, 0, k) != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestProblemTables(t *testing.T) {
	// Paper Table 1 (BT), Table 5 (SP), Table 7 (LU).
	bt := map[Class]string{ClassS: "12 x 12 x 12", ClassW: "32 x 32 x 32", ClassA: "64 x 64 x 64"}
	for c, want := range bt {
		p, err := BTProblem(c)
		if err != nil || p.String() != want {
			t.Errorf("BT %s = %q (%v), want %q", c, p.String(), err, want)
		}
	}
	sp := map[Class]string{ClassW: "36 x 36 x 36", ClassA: "64 x 64 x 64", ClassB: "102 x 102 x 102"}
	for c, want := range sp {
		p, err := SPProblem(c)
		if err != nil || p.String() != want {
			t.Errorf("SP %s = %q (%v), want %q", c, p.String(), err, want)
		}
	}
	lu := map[Class]string{ClassW: "33 x 33 x 33", ClassA: "64 x 64 x 64", ClassB: "102 x 102 x 102"}
	for c, want := range lu {
		p, err := LUProblem(c)
		if err != nil || p.String() != want {
			t.Errorf("LU %s = %q (%v), want %q", c, p.String(), err, want)
		}
	}
}

func TestBTTripCountsMatchPaper(t *testing.T) {
	s, _ := BTProblem(ClassS)
	w, _ := BTProblem(ClassW)
	a, _ := BTProblem(ClassA)
	if s.Trips != 60 || w.Trips != 200 || a.Trips != 200 {
		t.Errorf("BT trips = %d/%d/%d, paper says 60/200/200", s.Trips, w.Trips, a.Trips)
	}
}

func TestUnknownClassErrors(t *testing.T) {
	if _, err := BTProblem("Z"); err == nil {
		t.Error("unknown BT class should fail")
	}
	if _, err := SPProblem("Z"); err == nil {
		t.Error("unknown SP class should fail")
	}
	if _, err := LUProblem("Z"); err == nil {
		t.Error("unknown LU class should fail")
	}
}

func TestProblemCells(t *testing.T) {
	p := TinyProblem(4, 2)
	if p.Cells() != 64 {
		t.Errorf("Cells = %d", p.Cells())
	}
}

func TestFactorTable(t *testing.T) {
	// Distinct lengths per axis so a transposed index cannot hide.
	p := []float64{0.1, 0.2, 0.3}
	q := []float64{1.5, 2.5}
	r := []float64{7, 8, 9, 10}
	two := func(c int, p, q float64) float64 { return float64(c+1)*p + 100*q }
	one := func(c int, r float64) float64 { return r - float64(c) }
	tab := NewFactorTable(p, q, r, two, one)
	for ip, pv := range p {
		for iq, qv := range q {
			for c, got := range tab.Two(ip, iq) {
				if want := two(c, pv, qv); got != want {
					t.Errorf("Two(%d,%d)[%d] = %v, want %v", ip, iq, c, got, want)
				}
			}
		}
	}
	for ir, rv := range r {
		for c, got := range tab.One(ir) {
			if want := one(c, rv); got != want {
				t.Errorf("One(%d)[%d] = %v, want %v", ir, c, got, want)
			}
		}
	}
}
