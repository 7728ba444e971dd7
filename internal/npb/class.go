// Package npb holds the infrastructure shared by the Go reimplementations
// of the NAS Parallel Benchmarks BT, SP and LU used in the coupling study,
// and of the FT extension: the Benchmark type each of them describes
// itself with once (its class problems, Tables 1, 5 and 7 of the paper,
// and its kernel groups), the ghost-cell field type the solvers compute
// on, and the measurement runner that times kernel windows across a world
// of ranks.
package npb

import (
	"fmt"
	"strconv"
)

// Class identifies a NAS problem class.
type Class string

// The problem classes used in the paper's evaluation.
const (
	ClassS Class = "S"
	ClassW Class = "W"
	ClassA Class = "A"
	ClassB Class = "B"
)

// Problem is one benchmark × class configuration: the global grid and the
// benchmark's main-loop trip count.
type Problem struct {
	Class      Class
	N1, N2, N3 int
	Trips      int
	Dt         float64
}

// String renders the grid size the way the paper's data-set tables do,
// "N1 x N2 x N3". Every served query renders it into its world digest, so
// it appends rather than formats.
func (p Problem) String() string {
	b := make([]byte, 0, 24)
	b = strconv.AppendInt(b, int64(p.N1), 10)
	b = append(b, " x "...)
	b = strconv.AppendInt(b, int64(p.N2), 10)
	b = append(b, " x "...)
	b = strconv.AppendInt(b, int64(p.N3), 10)
	return string(b)
}

// Cells returns the number of grid cells.
func (p Problem) Cells() int { return p.N1 * p.N2 * p.N3 }

// Benchmark describes one benchmark once: its problem at each class, its
// kernels grouped as the paper's control flow has them, how a grid
// override reshapes its problem, and how the worlds of one configuration
// are built. Each benchmark package exports one. Every caller shares the
// kernel groups, so none may write to them.
type Benchmark struct {
	// Name is the benchmark's name: "BT", "SP", "LU" or "FT".
	Name string
	// Classes holds the problem of each class the benchmark has.
	Classes []Problem
	// Pre, Loop and Post are the one-shot pre-kernels, the loop ring and
	// the one-shot post-kernels.
	Pre, Loop, Post []string
	// Planar marks a benchmark on an N1 × N2 plane (FT): a grid override
	// n makes the plane n × n and keeps the rest of the class problem,
	// where it otherwise makes an n³ TinyProblem with the class's trips.
	Planar bool
	// Factory returns the factory of the worlds of prob on procs ranks,
	// or the benchmark's refusal of that configuration.
	Factory func(prob Problem, procs int) (*Factory, error)
}

// Problem returns the benchmark's problem of class c.
func (b *Benchmark) Problem(c Class) (Problem, error) {
	for _, p := range b.Classes {
		if p.Class == c {
			return p, nil
		}
	}
	return Problem{}, fmt.Errorf("npb: %s has no class %q", b.Name, c)
}

// Grid applies the grid override n to prob; a non-positive n returns prob
// unchanged. The override flows into every world digest, which is how a
// shrunk grid stays a cache namespace apart from the class-sized one.
func (b *Benchmark) Grid(prob Problem, n int) Problem {
	if n <= 0 {
		return prob
	}
	if b.Planar {
		prob.N1, prob.N2 = n, n
		return prob
	}
	return TinyProblem(n, prob.Trips)
}

// TinyProblem returns a small custom grid for tests: correctness checks
// don't need class-sized grids.
func TinyProblem(n, trips int) Problem {
	return Problem{Class: "T", N1: n, N2: n, N3: n, Trips: trips, Dt: 0.01}
}
