package mpi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Reduction operators beyond OpSum, which only the tests reduce with.
var (
	OpProd Op = func(a, b float64) float64 { return a * b }
	OpMax  Op = math.Max
	OpMin  Op = math.Min
)

// worldSizes covers odd, even, power-of-two and square sizes so the tree
// and ring algorithms are exercised across their branch structure.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 16}

func TestBarrierAllSizes(t *testing.T) {
	for _, n := range worldSizes {
		run(t, n, func(c *Comm) {
			for i := 0; i < 5; i++ {
				c.Barrier()
			}
		})
	}
}

func TestBarrierActuallySynchronizes(t *testing.T) {
	// Rank 1 sets a flag before the barrier; rank 0 must observe it after.
	// The barrier's happens-before edges make this race-free.
	const n = 4
	flags := make([]int, n)
	run(t, n, func(c *Comm) {
		flags[c.Rank()] = 1
		c.Barrier()
		for r, f := range flags {
			if f != 1 {
				t.Errorf("rank %d saw rank %d's pre-barrier write missing", c.Rank(), r)
			}
		}
	})
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			root := root
			run(t, n, func(c *Comm) {
				buf := make([]float64, 3)
				if c.Rank() == root {
					buf[0], buf[1], buf[2] = 1, 2, 3
				}
				c.Bcast(root, buf)
				if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
					t.Errorf("n=%d root=%d rank=%d: got %v", n, root, c.Rank(), buf)
				}
			})
		}
	}
}

func TestReduceSumAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			root := root
			run(t, n, func(c *Comm) {
				in := []float64{float64(c.Rank()), 1}
				out := make([]float64, 2)
				c.reduce(root, OpSum, in, out)
				if c.Rank() == root {
					wantSum := float64(n*(n-1)) / 2
					if out[0] != wantSum || out[1] != float64(n) {
						t.Errorf("n=%d root=%d: got %v, want [%v %v]", n, root, out, wantSum, n)
					}
				}
			})
		}
	}
}

func TestReduceMaxMinProd(t *testing.T) {
	run(t, 5, func(c *Comm) {
		r := float64(c.Rank())
		var mx, mn, pd [1]float64
		c.reduce(0, OpMax, []float64{r}, mx[:])
		c.reduce(0, OpMin, []float64{r - 10}, mn[:])
		c.reduce(0, OpProd, []float64{r + 1}, pd[:])
		if c.Rank() == 0 {
			if mx[0] != 4 {
				t.Errorf("max = %v, want 4", mx[0])
			}
			if mn[0] != -10 {
				t.Errorf("min = %v, want -10", mn[0])
			}
			if pd[0] != 120 { // 5!
				t.Errorf("prod = %v, want 120", pd[0])
			}
		}
	})
}

func TestAllreduceMatchesSequentialReduce(t *testing.T) {
	for _, n := range worldSizes {
		// Deterministic per-rank vectors.
		data := make([][]float64, n)
		rng := rand.New(rand.NewSource(42))
		want := make([]float64, 4)
		for r := range data {
			data[r] = make([]float64, 4)
			for i := range data[r] {
				data[r][i] = math.Floor(rng.Float64()*100) / 4
				want[i] += data[r][i]
			}
		}
		run(t, n, func(c *Comm) {
			out := make([]float64, 4)
			c.Allreduce(OpSum, data[c.Rank()], out)
			for i := range out {
				if math.Abs(out[i]-want[i]) > 1e-9 {
					t.Errorf("n=%d rank=%d elem %d: got %v, want %v", n, c.Rank(), i, out[i], want[i])
					return
				}
			}
		})
	}
}

func TestAllreduceBitIdenticalAcrossRanks(t *testing.T) {
	// The reduce-then-broadcast structure must give all ranks the exact
	// same bits, which NPB verification relies on.
	const n = 7
	results := make([]float64, n)
	run(t, n, func(c *Comm) {
		x := 1.0 / float64(c.Rank()+3) // not exactly representable sums
		results[c.Rank()] = c.AllreduceScalar(OpSum, x)
	})
	for r := 1; r < n; r++ {
		if results[r] != results[0] {
			t.Errorf("rank %d allreduce differs: %v vs %v", r, results[r], results[0])
		}
	}
}

func TestGather(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root += max(1, n-1) { // first and last root
			root := root
			run(t, n, func(c *Comm) {
				in := []float64{float64(c.Rank() * 10), float64(c.Rank()*10 + 1)}
				var out []float64
				if c.Rank() == root {
					out = make([]float64, 2*n)
				}
				c.gather(root, in, out)
				if c.Rank() == root {
					for r := 0; r < n; r++ {
						if out[2*r] != float64(r*10) || out[2*r+1] != float64(r*10+1) {
							t.Errorf("n=%d root=%d: block %d = %v", n, root, r, out[2*r:2*r+2])
						}
					}
				}
			})
		}
	}
}

func TestAlltoall(t *testing.T) {
	for _, n := range worldSizes {
		run(t, n, func(c *Comm) {
			// Rank r sends value r*100+d to rank d.
			in := make([]float64, n)
			for d := range in {
				in[d] = float64(c.Rank()*100 + d)
			}
			out := make([]float64, n)
			c.Alltoall(in, out)
			for s := range out {
				if out[s] != float64(s*100+c.Rank()) {
					t.Errorf("n=%d rank=%d: from %d got %v", n, c.Rank(), s, out[s])
					return
				}
			}
		})
	}
}

func TestAlltoallIsTransposeProperty(t *testing.T) {
	// Property: alltoall of the matrix M[r][d] yields M^T at the receivers.
	f := func(seed int64) bool {
		const n = 6
		rng := rand.New(rand.NewSource(seed))
		m := make([][]float64, n)
		for r := range m {
			m[r] = make([]float64, n)
			for d := range m[r] {
				m[r][d] = math.Floor(rng.Float64() * 1000)
			}
		}
		ok := true
		err := Run(n, func(c *Comm) {
			out := make([]float64, n)
			c.Alltoall(m[c.Rank()], out)
			for s := range out {
				if out[s] != m[s][c.Rank()] {
					ok = false
				}
			}
		}, WithRecvTimeout(10*time.Second))
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConsecutiveCollectivesDoNotCross(t *testing.T) {
	// Back-to-back broadcasts with different payloads must not be
	// confused by message matching.
	run(t, 8, func(c *Comm) {
		for i := 0; i < 20; i++ {
			buf := []float64{0}
			if c.Rank() == i%3 {
				buf[0] = float64(i)
			}
			c.Bcast(i%3, buf)
			if buf[0] != float64(i) {
				t.Errorf("iteration %d rank %d: got %v", i, c.Rank(), buf[0])
				return
			}
		}
	})
}
