package npb

// FactorTable tabulates, per solution component, the two trigonometric
// factors of a benchmark's smooth reference field
//
//	exact(c, p, q, r) = g(c, two(c, p, q), one(c, r), p, q, r)
//
// over the grid coordinates one rank owns: two over the (p, q) plane, one
// along r. Because the factors separate, a rank needs len(p)·len(q) + len(r)
// evaluations per component where evaluating exact cell by cell took
// len(p)·len(q)·len(r) of each — in every world's set-up and again in every
// INITIALIZATION, ERHS and ERROR kernel, which came to a third of an LU
// study's CPU time. The tabulated values are the ones the per-cell
// evaluation produced (same arguments, same math.Sin / math.Cos), so the
// fields built from them are bit-identical.
type FactorTable struct {
	np  int
	two [][5]float64 // [iq*np+ip][c]
	one [][5]float64 // [ir][c]
}

// NewFactorTable evaluates the factors at every (p[ip], q[iq]) and r[ir].
func NewFactorTable(p, q, r []float64, two func(c int, p, q float64) float64, one func(c int, r float64) float64) *FactorTable {
	t := &FactorTable{
		np:  len(p),
		two: make([][5]float64, len(p)*len(q)),
		one: make([][5]float64, len(r)),
	}
	for iq, qv := range q {
		for ip, pv := range p {
			row := &t.two[iq*t.np+ip]
			for c := range row {
				row[c] = two(c, pv, qv)
			}
		}
	}
	for ir, rv := range r {
		row := &t.one[ir]
		for c := range row {
			row[c] = one(c, rv)
		}
	}
	return t
}

// Two returns the two-coordinate factor of every component at (p[ip], q[iq]).
func (t *FactorTable) Two(ip, iq int) *[5]float64 { return &t.two[iq*t.np+ip] }

// One returns the one-coordinate factor of every component at r[ir].
func (t *FactorTable) One(ir int) *[5]float64 { return &t.one[ir] }
