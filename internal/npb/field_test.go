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
					f.Data[f.Idx(i, j, k)+c] = val(c, i, j, k)
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
	f.Data[f.Idx(-1, 0, 0)] = 7
	f.Data[f.Idx(3, 0, 0)] = 8
	f.Data[f.Idx(0, -1, 0)+1] = 9
	f.Data[f.Idx(0, 3, 0)+1] = 10
	f.Data[f.Idx(0, 0, -1)] = 11
	f.Data[f.Idx(0, 0, 3)] = 12
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

func TestFieldInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid shape should panic")
		}
	}()
	NewField(0, 1, 1, 1, 0)
}

// cell maps a position p along axis a and (q, r) along the other two,
// lower first, to (i, j, k).
func cell(a Axis, p, q, r int) (i, j, k int) {
	switch a {
	case AxisX:
		return p, q, r
	case AxisY:
		return q, p, r
	}
	return q, r, p
}

func TestPlaneWalkMovesFaces(t *testing.T) {
	// Planes normal to each axis, packed from f's interior and unpacked
	// into g's ghost layer. A face travels with the higher of the two
	// other axes outer, the lower inner.
	f := NewField(2, 3, 4, 5, 1)
	for k := 0; k < f.Nz; k++ {
		for j := 0; j < f.Ny; j++ {
			for i := 0; i < f.Nx; i++ {
				for c := 0; c < 2; c++ {
					f.Data[f.Idx(i, j, k)+c] = float64(c + 2*i + 10*j + 100*k)
				}
			}
		}
	}
	for _, tc := range []struct {
		a        Axis
		src, dst int
		nq, nr   int // interior extents of the other two axes, lower first
	}{
		{AxisY, 2, -1, f.Nx, f.Nz},
		{AxisZ, 1, 5, f.Nx, f.Ny},
		{AxisX, 0, -1, f.Ny, f.Nz},
	} {
		buf := make([]float64, tc.nq*tc.nr*f.NC)
		if n := f.movePlane(tc.a, tc.src, buf, true); n != len(buf) {
			t.Fatalf("axis %d: packed %d, want %d", tc.a, n, len(buf))
		}
		g := NewField(2, 3, 4, 5, 1)
		g.movePlane(tc.a, tc.dst, buf, false)
		for r := 0; r < tc.nr; r++ {
			for q := 0; q < tc.nq; q++ {
				si, sj, sk := cell(tc.a, tc.src, q, r)
				di, dj, dk := cell(tc.a, tc.dst, q, r)
				for c := 0; c < 2; c++ {
					want := f.At(c, si, sj, sk)
					if got := g.At(c, di, dj, dk); got != want {
						t.Fatalf("axis %d: ghost (%d,%d,%d) c=%d = %v, want %v", tc.a, di, dj, dk, c, got, want)
					}
					if got := buf[(r*tc.nq+q)*f.NC+c]; got != want {
						t.Fatalf("axis %d: face value (q=%d, r=%d) c=%d = %v, want %v", tc.a, q, r, c, got, want)
					}
				}
			}
		}
	}
}

func TestPlaneWalkProperty(t *testing.T) {
	// Property: pack→unpack into the same plane of a fresh field is the
	// identity on that plane's interior cells and leaves everything else
	// zero; CopyPlane then duplicates exactly those cells into another
	// plane.
	f := func(seed int64, axis uint8) bool {
		a := Axis(axis % 3)
		ff := NewField(3, 4, 4, 4, 1)
		for i := range ff.Data {
			ff.Data[i] = float64((seed+int64(i)*2654435761)%1000) / 7
		}
		buf := make([]float64, 4*4*3)
		ff.movePlane(a, 1, buf, true)
		gg := NewField(3, 4, 4, 4, 1)
		gg.movePlane(a, 1, buf, false)
		hh := NewField(3, 4, 4, 4, 1)
		copy(hh.Data, gg.Data)
		hh.CopyPlane(a, 1, 2)
		for r := -1; r <= 4; r++ {
			for q := -1; q <= 4; q++ {
				for p := -1; p <= 4; p++ {
					interior := q >= 0 && q < 4 && r >= 0 && r < 4
					i, j, k := cell(a, p, q, r)
					si, sj, sk := cell(a, 1, q, r)
					for c := 0; c < 3; c++ {
						want := 0.0
						if interior && p == 1 {
							want = ff.At(c, i, j, k)
						}
						if gg.At(c, i, j, k) != want {
							return false
						}
						if interior && p == 2 {
							want = ff.At(c, si, sj, sk)
						}
						if hh.At(c, i, j, k) != want {
							return false
						}
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
