package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Identity5 returns the 5×5 identity.
func Identity5() Mat5 {
	var m Mat5
	for i := 0; i < 5; i++ {
		m[i*5+i] = 1
	}
	return m
}

// MaxAbsDiffM returns the largest absolute elementwise difference between
// two matrices.
func MaxAbsDiffM(a, b *Mat5) float64 {
	d := 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
	}
	return d
}

// randMat5 builds a random diagonally dominant 5×5 matrix so the
// no-pivoting factorization is well conditioned, matching the structure of
// the BT solver's blocks.
func randMat5(rng *rand.Rand) Mat5 {
	var m Mat5
	for i := 0; i < 5; i++ {
		rowSum := 0.0
		for j := 0; j < 5; j++ {
			if i != j {
				m[i*5+j] = rng.Float64()*2 - 1
				rowSum += math.Abs(m[i*5+j])
			}
		}
		m[i*5+i] = rowSum + 1 + rng.Float64()
	}
	return m
}

func randVec5(rng *rand.Rand) Vec5 {
	var v Vec5
	for i := range v {
		v[i] = rng.Float64()*10 - 5
	}
	return v
}

func TestIdentity5(t *testing.T) {
	id := Identity5()
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id[i*5+j] != want {
				t.Fatalf("identity[%d][%d] = %v", i, j, id[i*5+j])
			}
		}
	}
}

// The loop nests the fused kernels replaced, kept as their oracles: every
// fused kernel must produce, element for element, the bits these do.

func mulMM(dst, a, b *Mat5) {
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			s := 0.0
			for k := 0; k < 5; k++ {
				s += a[i*5+k] * b[k*5+j]
			}
			dst[i*5+j] = s
		}
	}
}

func mulMV(dst *Vec5, a *Mat5, v *Vec5) {
	for i := 0; i < 5; i++ {
		s := 0.0
		for k := 0; k < 5; k++ {
			s += a[i*5+k] * v[k]
		}
		dst[i] = s
	}
}

func subMM(dst, a, b *Mat5) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

func subMV(dst, a, b *Vec5) {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// lu5 is the copying, loop-nest LU the solver used to run on.
type lu5 struct{ m Mat5 }

func (lu *lu5) factor(a *Mat5) error {
	lu.m = *a
	m := &lu.m
	for p := 0; p < 5; p++ {
		piv := m[p*5+p]
		if !(math.Abs(piv) >= 1e-300) {
			return ErrZeroPivot
		}
		inv := 1 / piv
		for i := p + 1; i < 5; i++ {
			l := m[i*5+p] * inv
			m[i*5+p] = l
			for j := p + 1; j < 5; j++ {
				m[i*5+j] -= l * m[p*5+j]
			}
		}
	}
	return nil
}

func (lu *lu5) solveVec(b *Vec5) {
	m := &lu.m
	for i := 1; i < 5; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= m[i*5+j] * b[j]
		}
		b[i] = s
	}
	for i := 4; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < 5; j++ {
			s -= m[i*5+j] * b[j]
		}
		b[i] = s / m[i*5+i]
	}
}

func (lu *lu5) solveMat(b *Mat5) {
	var col Vec5
	for j := 0; j < 5; j++ {
		for i := 0; i < 5; i++ {
			col[i] = b[i*5+j]
		}
		lu.solveVec(&col)
		for i := 0; i < 5; i++ {
			b[i*5+j] = col[i]
		}
	}
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkKernelsBitwise runs every fused kernel and its oracle on one set of
// operands: m is factorable, a, b and d are arbitrary blocks, r and v
// arbitrary vectors.
func checkKernelsBitwise(t *testing.T, label string, m, a, b, d *Mat5, r, v *Vec5) {
	t.Helper()
	var tmpM Mat5
	var tmpV Vec5

	wantM, gotM := *d, *d
	mulMM(&tmpM, a, b)
	subMM(&wantM, &wantM, &tmpM)
	SubMulMM(&gotM, a, b)
	if !sameBits(gotM[:], wantM[:]) {
		t.Fatalf("%s: SubMulMM = %v, loop nest %v", label, gotM, wantM)
	}

	var wantV, gotV Vec5
	mulMV(&tmpV, a, v)
	subMV(&wantV, r, &tmpV)
	SubMulMV(&gotV, r, a, v)
	onR, onV := *r, *v
	SubMulMV(&onR, &onR, a, v)
	SubMulMV(&onV, r, a, &onV)
	if !sameBits(gotV[:], wantV[:]) || !sameBits(onR[:], wantV[:]) || !sameBits(onV[:], wantV[:]) {
		t.Fatalf("%s: SubMulMV = %v (dst==r %v, dst==v %v), loop nest %v", label, gotV, onR, onV, wantV)
	}

	var lu lu5
	f := *m
	if errW, errG := lu.factor(m), FactorLU(&f); errW != nil || errG != nil {
		t.Fatalf("%s: factor failed: loop nest %v, fused %v", label, errW, errG)
	}
	if !sameBits(f[:], lu.m[:]) {
		t.Fatalf("%s: FactorLU = %v, loop nest %v", label, f, lu.m)
	}

	wantV, gotV = *v, *v
	lu.solveVec(&wantV)
	SolveLUVec(&f, &gotV)
	if !sameBits(gotV[:], wantV[:]) {
		t.Fatalf("%s: SolveLUVec = %v, loop nest %v", label, gotV, wantV)
	}

	wantM, gotM = *b, *b
	lu.solveMat(&wantM)
	SolveLUMat(&f, &gotM)
	if !sameBits(gotM[:], wantM[:]) {
		t.Fatalf("%s: SolveLUMat = %v, loop nest %v", label, gotM, wantM)
	}
}

// The contract of block5.go: same IEEE operations, same order, same bits.
func TestFusedKernelsMatchLoopNestsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	randBlock := func(scale float64) Mat5 {
		var m Mat5
		for i := range m {
			m[i] = (rng.Float64()*2 - 1) * scale
		}
		return m
	}
	for trial := 0; trial < 20000; trial++ {
		m := randMat5(rng)
		a, b, d := randBlock(1), randBlock(0.5), randMat5(rng)
		r, v := randVec5(rng), randVec5(rng)
		checkKernelsBitwise(t, fmt.Sprintf("trial %d", trial), &m, &a, &b, &d, &r, &v)
	}

	// Hand cases: signed zeros, denormals and a zero column are where a
	// dropped "0.0 +" or a reassociated sum first shows.
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	plant := func(base Mat5, val float64, at ...int) Mat5 {
		for _, i := range at {
			base[i] = val
		}
		return base
	}
	var allNegZero, negOnes, zeroCol Mat5
	for i := range allNegZero {
		allNegZero[i] = negZero
		negOnes[i] = -1
	}
	zeroCol = randBlock(1)
	for i := 0; i < 5; i++ {
		zeroCol[i*5+2] = 0
	}
	m := randMat5(rng)
	vNegZero := Vec5{negZero, negZero, negZero, negZero, negZero}
	vDenorm := Vec5{denorm, -denorm, 1e-310, -1e-310, 0}
	hand := []struct {
		label      string
		m, a, b, d Mat5
		r, v       Vec5
	}{
		// -1 · 0 = -0.0 five times: the sum is +0.0 only because it starts
		// from 0.0, and -0.0 - (+0.0) keeps its sign where -0.0 - (-0.0) would not.
		{"negzero-dst", m, negOnes, Mat5{}, allNegZero, vNegZero, Vec5{}},
		{"negzero-operands", plant(m, negZero, 1, 7, 13, 19, 20), allNegZero, plant(randBlock(1), negZero, 0, 6, 12), allNegZero, vNegZero, vNegZero},
		{"zero-column", plant(m, 0, 2, 7, 17, 22), zeroCol, zeroCol, randBlock(1), randVec5(rng), Vec5{1, 0, -1, 0, negZero}},
		{"denormals", plant(m, denorm, 1, 5, 23), plant(randBlock(1), denorm, 0, 8, 24), plant(randBlock(1), -denorm, 3, 11, 12), plant(allNegZero, 1e-310, 4, 9), vDenorm, vDenorm},
		{"denormal-rhs-block", m, randBlock(1e-160), randBlock(1e-160), Mat5{}, vDenorm, randVec5(rng)},
	}
	for i := range hand {
		h := &hand[i]
		checkKernelsBitwise(t, h.label, &h.m, &h.a, &h.b, &h.d, &h.r, &h.v)
	}
}

func TestMulMMAgainstManual(t *testing.T) {
	var a, b, got Mat5
	for i := range a {
		a[i] = float64(i + 1)
		b[i] = float64((i*3)%7) - 2
		got[i] = float64(i) / 4
	}
	SubMulMM(&got, &a, &b)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := float64(i*5+j) / 4
			for k := 0; k < 5; k++ {
				want -= a[i*5+k] * b[k*5+j]
			}
			if math.Abs(got[i*5+j]-want) > 1e-12 {
				t.Fatalf("SubMulMM[%d][%d] = %v, want %v", i, j, got[i*5+j], want)
			}
		}
	}
}

func TestMulMMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMat5(rng)
	id := Identity5()
	got := a
	SubMulMM(&got, &a, &id)
	if d := MaxAbsDiffM(&got, &Mat5{}); d != 0 {
		t.Errorf("A - A·I off by %v", d)
	}
	got = a
	SubMulMM(&got, &id, &a)
	if d := MaxAbsDiffM(&got, &Mat5{}); d != 0 {
		t.Errorf("A - I·A off by %v", d)
	}
}

func TestMulMVIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := randVec5(rng)
	id := Identity5()
	var got Vec5
	SubMulMV(&got, &v, &id, &v)
	if got != (Vec5{}) {
		t.Errorf("v - I·v = %v", got)
	}
}

func TestSubOps(t *testing.T) {
	// The fused subtract-multiply may write over either vector operand.
	id := Identity5()
	r := Vec5{5, 4, 3, 2, 1}
	v := Vec5{1, 1, 1, 1, 1}
	want := Vec5{4, 3, 2, 1, 0}
	onR, onV := r, v
	SubMulMV(&onR, &onR, &id, &v)
	SubMulMV(&onV, &r, &id, &onV)
	if onR != want || onV != want {
		t.Fatalf("SubMulMV aliased: dst==r %v, dst==v %v, want %v", onR, onV, want)
	}
}

func TestLU5SolveVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		a := randMat5(rng)
		b := randVec5(rng)

		lu := a
		if err := FactorLU(&lu); err != nil {
			t.Fatal(err)
		}
		x := b
		SolveLUVec(&lu, &x)

		// Dense oracle.
		ad := make([][]float64, 5)
		for i := range ad {
			ad[i] = a[i*5 : i*5+5]
		}
		want, err := DenseSolve(ad, b[:])
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], want[i])
			}
		}
	}
}

func TestLU5SolveMat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat5(rng)
	b := randMat5(rng)
	lu := a
	if err := FactorLU(&lu); err != nil {
		t.Fatal(err)
	}
	x := b
	SolveLUMat(&lu, &x)
	// Check A·X == B.
	var ax Mat5
	mulMM(&ax, &a, &x)
	if d := MaxAbsDiffM(&ax, &b); d > 1e-9 {
		t.Errorf("A·X differs from B by %v", d)
	}
}

func TestLU5ZeroPivot(t *testing.T) {
	var a Mat5 // all zeros
	if err := FactorLU(&a); !errors.Is(err, ErrZeroPivot) {
		t.Errorf("zero matrix: err = %v, want ErrZeroPivot", err)
	}
	// A NaN pivot compares false against any threshold; the guard must be
	// written so that false means failure. One case per pivot position,
	// the later ones reached only through elimination.
	rng := rand.New(rand.NewSource(7))
	for p := 0; p < 5; p++ {
		a = randMat5(rng)
		a[p*5+p] = math.NaN()
		if err := FactorLU(&a); !errors.Is(err, ErrZeroPivot) {
			t.Errorf("NaN at pivot %d: err = %v, want ErrZeroPivot", p, err)
		}
	}
	a = randMat5(rng)
	a[1] = math.NaN() // poisons pivot 1 during elimination of column 0
	if err := FactorLU(&a); !errors.Is(err, ErrZeroPivot) {
		t.Errorf("NaN off the diagonal: err = %v, want ErrZeroPivot", err)
	}
}

func TestDenseSolveKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := DenseSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3.
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestDenseSolveNeedsPivoting(t *testing.T) {
	// Zero leading pivot requires the row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := DenseSolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestDenseSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	if _, err := DenseSolve(a, []float64{1, 2}); err == nil {
		t.Error("singular system should fail")
	}
}

func TestDenseSolveShapeErrors(t *testing.T) {
	if _, err := DenseSolve(nil, nil); err == nil {
		t.Error("empty system should fail")
	}
	if _, err := DenseSolve([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("ragged system should fail")
	}
}

// BenchmarkForwardRow times one block row of BT's forward elimination —
// B -= A·Ĉ, r -= A·r̂, factor B, solve for Ĉ and r̂ — on the fused kernels
// and on the loop nests they replaced (with the copies the old solver made
// around them), over a line of rows long enough to leave the L1 cache the
// way a BT.W line family does.
func BenchmarkForwardRow(b *testing.B) {
	const rows = 1024
	rng := rand.New(rand.NewSource(11))
	as, bs, cs := make([]Mat5, rows), make([]Mat5, rows), make([]Mat5, rows)
	rs := make([]Vec5, rows)
	for i := range as {
		bs[i] = randMat5(rng)
		for e := range as[i] {
			as[i][e] = (rng.Float64()*2 - 1) * 0.2
			cs[i][e] = (rng.Float64()*2 - 1) * 0.2
		}
		rs[i] = randVec5(rng)
	}
	chat, rhat := make([]Mat5, rows), make([]Vec5, rows)

	b.Run("fused", func(b *testing.B) {
		var blk Mat5
		for n := 0; n < b.N; n++ {
			i := n % rows
			blk, chat[i], rhat[i] = bs[i], cs[i], rs[i]
			if i > 0 {
				SubMulMM(&blk, &as[i], &chat[i-1])
				SubMulMV(&rhat[i], &rhat[i], &as[i], &rhat[i-1])
			}
			if err := FactorLU(&blk); err != nil {
				b.Fatal(err)
			}
			SolveLUMat(&blk, &chat[i])
			SolveLUVec(&blk, &rhat[i])
		}
	})
	b.Run("loopnest", func(b *testing.B) {
		var blk, c, tmpM, prevC Mat5
		var rt, tmpV, prevR Vec5
		var lu lu5
		for n := 0; n < b.N; n++ {
			i := n % rows
			blk, c, rt = bs[i], cs[i], rs[i]
			if i > 0 {
				mulMM(&tmpM, &as[i], &prevC)
				subMM(&blk, &blk, &tmpM)
				mulMV(&tmpV, &as[i], &prevR)
				subMV(&rt, &rt, &tmpV)
			}
			if err := lu.factor(&blk); err != nil {
				b.Fatal(err)
			}
			lu.solveMat(&c)
			chat[i] = c
			lu.solveVec(&rt)
			rhat[i] = rt
			prevC, prevR = chat[i], rt
		}
	})
}
