// Package npb holds the infrastructure shared by the Go reimplementations
// of the NAS Parallel Benchmarks BT, SP and LU used in the coupling study:
// problem classes and their grid sizes (Tables 1, 5 and 7 of the paper),
// the ghost-cell field type the solvers compute on, and the measurement
// runner that times kernel windows across a world of ranks.
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

// BTProblem returns the BT configuration for a class (paper Table 1).
// Loop trip counts follow the paper: 60 for class S, 200 for W and A.
func BTProblem(c Class) (Problem, error) {
	switch c {
	case ClassS:
		return Problem{Class: c, N1: 12, N2: 12, N3: 12, Trips: 60, Dt: 0.010}, nil
	case ClassW:
		return Problem{Class: c, N1: 32, N2: 32, N3: 32, Trips: 200, Dt: 0.0008}, nil
	case ClassA:
		return Problem{Class: c, N1: 64, N2: 64, N3: 64, Trips: 200, Dt: 0.0008}, nil
	case ClassB:
		return Problem{Class: c, N1: 102, N2: 102, N3: 102, Trips: 200, Dt: 0.0003}, nil
	}
	return Problem{}, fmt.Errorf("npb: BT has no class %q", c)
}

// SPProblem returns the SP configuration for a class (paper Table 5).
// Trip counts follow the NPB 2.x specification (400 iterations).
func SPProblem(c Class) (Problem, error) {
	switch c {
	case ClassS:
		return Problem{Class: c, N1: 12, N2: 12, N3: 12, Trips: 100, Dt: 0.015}, nil
	case ClassW:
		return Problem{Class: c, N1: 36, N2: 36, N3: 36, Trips: 400, Dt: 0.0015}, nil
	case ClassA:
		return Problem{Class: c, N1: 64, N2: 64, N3: 64, Trips: 400, Dt: 0.0015}, nil
	case ClassB:
		return Problem{Class: c, N1: 102, N2: 102, N3: 102, Trips: 400, Dt: 0.001}, nil
	}
	return Problem{}, fmt.Errorf("npb: SP has no class %q", c)
}

// LUProblem returns the LU configuration for a class (paper Table 7).
// Trip counts follow the NPB 2.x specification.
func LUProblem(c Class) (Problem, error) {
	switch c {
	case ClassS:
		return Problem{Class: c, N1: 12, N2: 12, N3: 12, Trips: 50, Dt: 0.5}, nil
	case ClassW:
		return Problem{Class: c, N1: 33, N2: 33, N3: 33, Trips: 300, Dt: 1.5e-3}, nil
	case ClassA:
		return Problem{Class: c, N1: 64, N2: 64, N3: 64, Trips: 250, Dt: 2.0}, nil
	case ClassB:
		return Problem{Class: c, N1: 102, N2: 102, N3: 102, Trips: 250, Dt: 2.0}, nil
	}
	return Problem{}, fmt.Errorf("npb: LU has no class %q", c)
}

// TinyProblem returns a small custom grid for tests: correctness checks
// don't need class-sized grids.
func TinyProblem(n, trips int) Problem {
	return Problem{Class: "T", N1: n, N2: n, N3: n, Trips: trips, Dt: 0.01}
}
