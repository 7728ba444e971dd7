package mpi

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestReduceMatchesSequentialFoldProperty: for random vectors and any
// built-in operator, the tree reduction agrees with a sequential fold.
func TestReduceMatchesSequentialFoldProperty(t *testing.T) {
	ops := []Op{OpSum, OpMax, OpMin}
	f := func(seed int64, opIdx uint8, sizeRaw uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		n := int(sizeRaw)%7 + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([][]float64, n)
		want := make([]float64, 3)
		for r := range data {
			data[r] = make([]float64, 3)
			for i := range data[r] {
				data[r][i] = math.Floor(rng.Float64()*200) - 100
			}
		}
		copy(want, data[0])
		for r := 1; r < n; r++ {
			for i := range want {
				want[i] = op(want[i], data[r][i])
			}
		}
		ok := true
		err := Run(n, func(c *Comm) {
			out := make([]float64, 3)
			c.reduce(0, op, data[c.Rank()], out)
			if c.Rank() == 0 {
				for i := range want {
					if math.Abs(out[i]-want[i]) > 1e-9 {
						ok = false
					}
				}
			}
		}, WithRecvTimeout(10*time.Second))
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSplitPartitionProperty: any color assignment partitions the world —
// every non-negative-color rank lands in exactly one sub-communicator
// whose size equals its color's population, and sub-collectives work.
func TestSplitPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		const n = 6
		rng := rand.New(rand.NewSource(seed))
		colors := make([]int, n)
		for r := range colors {
			colors[r] = rng.Intn(3) - (rng.Intn(5) / 4) // mostly 0..2, sometimes -1
		}
		pop := map[int]int{}
		colorSum := map[int]float64{}
		for r, col := range colors {
			if col >= 0 {
				pop[col]++
				colorSum[col] += float64(r)
			}
		}
		ok := true
		err := Run(n, func(c *Comm) {
			sub := c.Split(colors[c.Rank()], c.Rank())
			if colors[c.Rank()] < 0 {
				if sub != nil {
					ok = false
				}
				return
			}
			if sub.Size() != pop[colors[c.Rank()]] {
				ok = false
				return
			}
			got := sub.AllreduceScalar(OpSum, float64(c.Rank()))
			if math.Abs(got-colorSum[colors[c.Rank()]]) > 1e-12 {
				ok = false
			}
		}, WithRecvTimeout(10*time.Second))
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBcastAlltoallGatherPipeline chains three collectives with data
// dependencies, a structural test that contexts and tags never cross.
func TestBcastAlltoallGatherPipeline(t *testing.T) {
	const n = 5
	run(t, n, func(c *Comm) {
		// Root broadcasts a base, hands out per-rank offsets through an
		// alltoall (the other ranks' blocks are zero), gathers rank
		// results, repeats with the gathered data.
		base := []float64{0}
		chunks := make([]float64, n)
		if c.Rank() == 0 {
			base[0] = 100
			chunks = []float64{1, 2, 3, 4, 5}
		}
		for iter := 0; iter < 5; iter++ {
			c.Bcast(0, base)
			got := make([]float64, n)
			c.Alltoall(chunks, got)
			mine := []float64{got[0] + base[0]}
			gathered := make([]float64, n)
			c.gather(0, mine, gathered)
			if c.Rank() == 0 {
				for r := 0; r < n; r++ {
					want := base[0] + float64(r+1) + float64(iter)
					if gathered[r] != want {
						t.Errorf("iter %d rank %d: %v, want %v", iter, r, gathered[r], want)
						return
					}
				}
				// Feed forward: chunks grow by one each iteration.
				for r := range chunks {
					chunks[r]++
				}
			}
		}
	})
}

// TestMixedP2PAndCollectives interleaves user point-to-point traffic with
// collectives on the same communicator: reserved tags must keep them
// apart.
func TestMixedP2PAndCollectives(t *testing.T) {
	const n = 4
	run(t, n, func(c *Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		for iter := 0; iter < 10; iter++ {
			c.Send(right, 5, []float64{float64(c.Rank())})
			sum := c.AllreduceScalar(OpSum, 1)
			if sum != n {
				t.Errorf("allreduce = %v", sum)
				return
			}
			buf := make([]float64, 1)
			c.Recv(left, 5, buf)
			if buf[0] != float64(left) {
				t.Errorf("p2p got %v, want %v", buf[0], left)
				return
			}
			c.Barrier()
		}
	})
}
