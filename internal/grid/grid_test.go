package grid

import (
	"testing"
	"testing/quick"
)

func TestBlock1DBasic(t *testing.T) {
	cases := []struct {
		n, p, r, lo, hi int
	}{
		{10, 2, 0, 0, 5},
		{10, 2, 1, 5, 10},
		{10, 3, 0, 0, 4}, // 10 = 4+3+3
		{10, 3, 1, 4, 7},
		{10, 3, 2, 7, 10},
		{5, 5, 2, 2, 3},
		{3, 5, 0, 0, 1}, // more parts than items
		{3, 5, 4, 3, 3}, // empty tail range
		{0, 2, 1, 0, 0},
	}
	for _, c := range cases {
		r := Block1D(c.n, c.p, c.r)
		if r.Lo != c.lo || r.Hi != c.hi || r.N() != c.hi-c.lo {
			t.Errorf("Block1D(%d,%d,%d) = [%d,%d) of %d, want [%d,%d)", c.n, c.p, c.r, r.Lo, r.Hi, r.N(), c.lo, c.hi)
		}
	}
}

func TestBlock1DPartitionProperty(t *testing.T) {
	// Properties: ranges tile [0,n) exactly, in order, and sizes differ by
	// at most one.
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%32 + 1
		prevHi := 0
		minSz, maxSz := 1<<30, -1
		for r := 0; r < p; r++ {
			rg := Block1D(n, p, r)
			if rg.Lo != prevHi {
				return false
			}
			prevHi = rg.Hi
			sz := rg.N()
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return prevHi == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBlock1DPanicsOnBadArgs(t *testing.T) {
	for _, bad := range []struct{ n, p, r int }{{10, 0, 0}, {10, 2, 2}, {10, 2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Block1D(%d,%d,%d) should panic", bad.n, bad.p, bad.r)
				}
			}()
			Block1D(bad.n, bad.p, bad.r)
		}()
	}
}

func TestSquareSide(t *testing.T) {
	for _, c := range []struct{ p, s int }{{1, 1}, {4, 2}, {9, 3}, {16, 4}, {25, 5}, {36, 6}} {
		s, err := SquareSide(c.p)
		if err != nil || s != c.s {
			t.Errorf("SquareSide(%d) = %d, %v", c.p, s, err)
		}
	}
	for _, p := range []int{2, 3, 5, 8, 12, 15} {
		if _, err := SquareSide(p); err == nil {
			t.Errorf("SquareSide(%d) should fail", p)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8, 16, 32, 1024} {
		if !IsPowerOfTwo(p) {
			t.Errorf("IsPowerOfTwo(%d) = false", p)
		}
	}
	for _, p := range []int{0, -2, 3, 6, 12, 100} {
		if IsPowerOfTwo(p) {
			t.Errorf("IsPowerOfTwo(%d) = true", p)
		}
	}
}

func TestPencilDims(t *testing.T) {
	// Halving alternately x then y: p=2 -> (2,1); p=4 -> (2,2);
	// p=8 -> (4,2); p=16 -> (4,4); p=32 -> (8,4).
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {32, 8, 4},
	}
	for _, c := range cases {
		px, py, err := PencilDims(c.p)
		if err != nil || px != c.px || py != c.py {
			t.Errorf("PencilDims(%d) = (%d,%d), %v; want (%d,%d)", c.p, px, py, err, c.px, c.py)
		}
	}
	if _, _, err := PencilDims(6); err == nil {
		t.Error("PencilDims(6) should fail")
	}
}
