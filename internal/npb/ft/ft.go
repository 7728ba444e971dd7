// Package ft is a distributed 2-D FFT benchmark in the style of NAS FT,
// included because the coupling methodology was first demonstrated on an
// FFT code in the authors' prior work [TG01]. It extends the paper's
// BT/SP/LU evaluation with a transpose-based workload whose dominant
// communication is a single large all-to-all per iteration — the opposite
// end of the message-size spectrum from LU's many small messages.
//
// The kernel ring is EVOLVE (elementwise phase multiplication), FFT_X
// (radix-2 FFT along the locally owned rows), TRANSPOSE (global transpose
// via Alltoall plus local block transposes) and FFT_Y (FFT along the rows
// of the transposed layout). The transforms are normalized by 1/√N, so a
// full iteration is unitary and the energy checksum is invariant — any
// arithmetic or communication bug breaks that invariance, which is what
// verification checks.
//
// The N×N complex grid is distributed by rows over P ranks; P must divide
// N and both must be powers of two.
package ft

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/npb"
)

// Kernel names.
const (
	KInit      = "INITIALIZATION"
	KEvolve    = "EVOLVE"
	KFFTX      = "FFT_X"
	KTranspose = "TRANSPOSE"
	KFFTY      = "FFT_Y"
	KFinal     = "FINAL"
)

// Benchmark describes FT: an N × N plane per NAS-style class, 100 loop
// trips, its kernels grouped as pre / loop ring / post, and a planar grid
// override.
var Benchmark = npb.Benchmark{
	Name: "FT",
	Classes: []npb.Problem{
		{Class: npb.ClassS, N1: 64, N2: 64, N3: 1, Trips: 100},
		{Class: npb.ClassW, N1: 128, N2: 128, N3: 1, Trips: 100},
		{Class: npb.ClassA, N1: 256, N2: 256, N3: 1, Trips: 100},
		{Class: npb.ClassB, N1: 512, N2: 512, N3: 1, Trips: 100},
	},
	Pre:    []string{KInit},
	Loop:   []string{KEvolve, KFFTX, KTranspose, KFFTY},
	Post:   []string{KFinal},
	Planar: true,
	Factory: func(prob npb.Problem, procs int) (*npb.Factory, error) {
		return Factory(Config{N: prob.N1, Procs: procs})
	},
}

// Config selects an FT problem instance.
type Config struct {
	// N is the grid side; the grid is N×N complex values.
	N int
	// Procs is the rank count; Procs must divide N, both powers of two.
	Procs int
}

// Validate checks the FT-specific constraints.
func (cfg Config) Validate() error {
	if !grid.IsPowerOfTwo(cfg.N) || cfg.N < 4 {
		return fmt.Errorf("ft: grid side %d must be a power of two >= 4", cfg.N)
	}
	if !grid.IsPowerOfTwo(cfg.Procs) {
		return fmt.Errorf("ft: %d processes is not a power of two", cfg.Procs)
	}
	if cfg.N%cfg.Procs != 0 {
		return fmt.Errorf("ft: %d processes do not divide grid side %d", cfg.Procs, cfg.N)
	}
	return nil
}

// Factory returns the factory of the configuration's worlds. FT's state
// is not an npb.Rebinder, so every world builds its own.
func Factory(cfg Config) (*npb.Factory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return npb.NewFactory(func(c *mpi.Comm) (npb.KernelSet, error) {
		return newState(c, cfg)
	}), nil
}

// state is one rank's FT instance. Complex values are interleaved
// (re, im) in flat slices; the rank owns rows [r0, r0+rows) of the grid.
type state struct {
	c   *mpi.Comm
	cfg Config

	n    int // grid side
	rows int // rows per rank
	r0   int // first owned global row

	// data holds rows × n complex values, interleaved.
	data []float64
	// evolve phase factors for each layout parity, interleaved unit
	// complex values.
	phase [2][]float64
	// transposed tracks the current layout parity (flipped by TRANSPOSE).
	transposed bool

	// FFT twiddle factors and scratch.
	twiddle []float64 // interleaved, n/2 complex values
	rev     []int     // bit-reversal permutation of length n

	// Alltoall buffers.
	sendBuf, recvBuf []float64

	// Snapshots for Refresh.
	data0       []float64
	transposed0 bool

	// Verification state.
	energy float64
	sample [2]float64
}

func newState(c *mpi.Comm, cfg Config) (*state, error) {
	if c.Size() != cfg.Procs {
		return nil, fmt.Errorf("ft: world has %d ranks, config says %d", c.Size(), cfg.Procs)
	}
	st := &state{c: c, cfg: cfg, n: cfg.N}
	st.rows = cfg.N / cfg.Procs
	st.r0 = c.Rank() * st.rows

	st.data = make([]float64, 2*st.rows*st.n)
	st.phase[0] = make([]float64, 2*st.rows*st.n)
	st.phase[1] = make([]float64, 2*st.rows*st.n)
	st.twiddle = make([]float64, st.n) // n/2 complex values
	st.rev = make([]int, st.n)
	st.sendBuf = make([]float64, 2*st.rows*st.n)
	st.recvBuf = make([]float64, 2*st.rows*st.n)

	st.precompute()
	st.initialize()
	st.data0 = append([]float64(nil), st.data...)
	st.transposed0 = st.transposed
	return st, nil
}

// precompute fills the twiddle factors, the bit-reversal permutation and
// the two phase-factor tables.
func (st *state) precompute() {
	n := st.n
	for k := 0; k < n/2; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		st.twiddle[2*k] = math.Cos(ang)
		st.twiddle[2*k+1] = math.Sin(ang)
	}
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		st.rev[i] = r
	}
	// Unit-modulus evolution factors e^{iθ(gi,gj)}; the parity-1 table
	// uses the transposed coordinates so EVOLVE stays meaningful in
	// either layout.
	for li := 0; li < st.rows; li++ {
		gi := st.r0 + li
		for j := 0; j < st.n; j++ {
			idx := 2 * (li*st.n + j)
			t0 := 2 * math.Pi * float64((gi*7+j*3)%st.n) / float64(st.n)
			t1 := 2 * math.Pi * float64((j*7+gi*3)%st.n) / float64(st.n)
			st.phase[0][idx] = math.Cos(t0)
			st.phase[0][idx+1] = math.Sin(t0)
			st.phase[1][idx] = math.Cos(t1)
			st.phase[1][idx+1] = math.Sin(t1)
		}
	}
}

// RunKernel dispatches one application-order execution of the named kernel.
func (st *state) RunKernel(name string) error {
	switch name {
	case KInit:
		st.initialize()
	case KEvolve:
		st.evolve()
	case KFFTX:
		st.fftRows()
	case KTranspose:
		st.transpose()
	case KFFTY:
		st.fftRows()
	case KFinal:
		st.final()
	default:
		return fmt.Errorf("ft: unknown kernel %q", name)
	}
	return nil
}

// Refresh restores the post-setup data and layout parity.
func (st *state) Refresh() {
	copy(st.data, st.data0)
	st.transposed = st.transposed0
}

// Norms returns verification values: the global energy (invariant under
// the unitary iteration) padded into the common 5-slot shape.
func (st *state) Norms() [5]float64 {
	return [5]float64{st.energy, st.sample[0], st.sample[1], 0, 0}
}

// initialize fills the grid with a deterministic pseudo-random field and
// resets the layout parity.
func (st *state) initialize() {
	seed := uint64(12345)
	for li := 0; li < st.rows; li++ {
		gi := st.r0 + li
		for j := 0; j < st.n; j++ {
			// splitmix64 on the global coordinates: deterministic and
			// rank-count independent.
			x := uint64(gi)*0x9E3779B97F4A7C15 + uint64(j)*0xBF58476D1CE4E5B9 + seed
			x ^= x >> 30
			x *= 0xBF58476D1CE4E5B9
			x ^= x >> 27
			x *= 0x94D049BB133111EB
			x ^= x >> 31
			idx := 2 * (li*st.n + j)
			st.data[idx] = float64(x%1000)/500 - 1
			st.data[idx+1] = float64((x>>32)%1000)/500 - 1
		}
	}
	st.transposed = false
}

// evolve multiplies each element by its layout-appropriate unit phase
// factor: pure local compute streaming the whole grid.
func (st *state) evolve() {
	ph := st.phase[0]
	if st.transposed {
		ph = st.phase[1]
	}
	d := st.data
	for i := 0; i < len(d); i += 2 {
		re, im := d[i], d[i+1]
		pr, pi := ph[i], ph[i+1]
		d[i] = re*pr - im*pi
		d[i+1] = re*pi + im*pr
	}
}

// fftRows applies the normalized radix-2 FFT to every locally owned row.
func (st *state) fftRows() {
	n := st.n
	inv := 1 / math.Sqrt(float64(n))
	for li := 0; li < st.rows; li++ {
		row := st.data[2*li*n : 2*(li+1)*n]
		// Bit-reversal permutation.
		for i := 0; i < n; i++ {
			r := st.rev[i]
			if r > i {
				row[2*i], row[2*r] = row[2*r], row[2*i]
				row[2*i+1], row[2*r+1] = row[2*r+1], row[2*i+1]
			}
		}
		// Iterative Cooley-Tukey butterflies.
		for size := 2; size <= n; size <<= 1 {
			half := size / 2
			step := n / size
			for start := 0; start < n; start += size {
				for k := 0; k < half; k++ {
					wr := st.twiddle[2*k*step]
					wi := st.twiddle[2*k*step+1]
					a := 2 * (start + k)
					b := 2 * (start + k + half)
					tr := row[b]*wr - row[b+1]*wi
					ti := row[b]*wi + row[b+1]*wr
					row[b] = row[a] - tr
					row[b+1] = row[a+1] - ti
					row[a] += tr
					row[a+1] += ti
				}
			}
		}
		// 1/√N normalization keeps the iteration unitary.
		for i := range row {
			row[i] *= inv
		}
	}
}

// transpose performs the global transpose: pack per-destination blocks,
// one Alltoall, then place each received block transposed. Flips the
// layout parity.
func (st *state) transpose() {
	n := st.n
	rows := st.rows
	p := st.c.Size()
	blockCols := rows // each destination owns `rows` of the transposed grid
	chunk := 2 * rows * blockCols

	// Pack: destination d gets my rows restricted to its column range.
	for d := 0; d < p; d++ {
		c0 := d * blockCols
		off := d * chunk
		for li := 0; li < rows; li++ {
			src := 2 * (li*n + c0)
			copy(st.sendBuf[off+2*li*blockCols:off+2*(li+1)*blockCols], st.data[src:src+2*blockCols])
		}
	}
	st.c.Alltoall(st.sendBuf, st.recvBuf)
	// Unpack transposed: the block from rank s holds its rows
	// [s·rows, (s+1)·rows) × my columns; transposed, those become my
	// rows × columns [s·rows, ...).
	for s := 0; s < p; s++ {
		off := s * chunk
		c0 := s * rows
		for li := 0; li < rows; li++ { // li indexes the sender's rows
			for j := 0; j < blockCols; j++ { // j indexes my rows
				src := off + 2*(li*blockCols+j)
				dst := 2 * (j*n + c0 + li)
				st.data[dst] = st.recvBuf[src]
				st.data[dst+1] = st.recvBuf[src+1]
			}
		}
	}
	st.transposed = !st.transposed
}

// final computes the verification values: the global energy Σ|u|² and the
// global sum of the complex values (both layout-invariant reductions).
func (st *state) final() {
	var local [3]float64
	d := st.data
	for i := 0; i < len(d); i += 2 {
		local[0] += d[i]*d[i] + d[i+1]*d[i+1]
		local[1] += d[i]
		local[2] += d[i+1]
	}
	var global [3]float64
	st.c.Allreduce(mpi.OpSum, local[:], global[:])
	st.energy = global[0]
	st.sample[0] = global[1]
	st.sample[1] = global[2]
}
