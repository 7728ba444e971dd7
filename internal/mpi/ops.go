package mpi

// Op is a reduction operator over float64 vectors. Allreduce applies it
// elementwise; it must be associative and commutative for the
// tree-based reduction to be well defined.
type Op struct {
	name string
	fn   func(a, b float64) float64
}

// Name returns the operator's display name.
func (o Op) Name() string { return o.name }

// Apply combines two values with the operator.
func (o Op) Apply(a, b float64) float64 { return o.fn(a, b) }

// OpSum is the built-in reduction operator, elementwise addition: the one
// the benchmarks reduce with.
var OpSum = Op{"sum", func(a, b float64) float64 { return a + b }}
