package mpi_test

import (
	"fmt"

	"repro/internal/mpi"
)

// A minimal world: every rank contributes its rank number, the allreduce
// gives all of them the sum.
func ExampleRun() {
	results := make([]float64, 4)
	_ = mpi.Run(4, func(c *mpi.Comm) {
		results[c.Rank()] = c.AllreduceScalar(mpi.OpSum, float64(c.Rank()))
	})
	fmt.Println(results)
	// Output: [6 6 6 6]
}

// Point-to-point ring: each rank passes its rank to the right and prints
// what it got from the left. Sends are eager, so every rank may send
// before it receives without deadlocking the ring.
func ExampleComm_Send() {
	const n = 3
	got := make([]float64, n)
	_ = mpi.Run(n, func(c *mpi.Comm) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() - 1 + n) % n
		in := make([]float64, 1)
		c.Send(right, 0, []float64{float64(c.Rank())})
		c.Recv(left, 0, in)
		got[c.Rank()] = in[0]
	})
	fmt.Println(got)
	// Output: [2 0 1]
}

// Cartesian topologies give the NAS solvers their neighbor structure.
func ExampleNewCart() {
	sums := make([]float64, 2)
	_ = mpi.Run(4, func(c *mpi.Comm) {
		cart := mpi.NewCart(c, 2, 2)
		rows := cart.Sub(1) // communicators along each row
		sum := rows.AllreduceScalar(mpi.OpSum, float64(c.Rank()))
		if rows.Rank() == 0 {
			sums[cart.Coords()[0]] = sum
		}
	})
	for row, sum := range sums {
		fmt.Printf("row %d sums to %v\n", row, sum)
	}
	// Output:
	// row 0 sums to 1
	// row 1 sums to 5
}
