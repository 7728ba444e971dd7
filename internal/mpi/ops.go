package mpi

// Op is a reduction operator over float64 vectors. Allreduce applies it
// elementwise; it must be associative and commutative for the
// tree-based reduction to be well defined.
type Op func(a, b float64) float64

// OpSum is the built-in reduction operator, elementwise addition: the one
// the benchmarks reduce with.
var OpSum Op = func(a, b float64) float64 { return a + b }
