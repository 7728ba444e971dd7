package npb_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// haloCase is one cut of a grid: the shape of the grid, the two cut axes,
// the process grid over them and the halo depth.
type haloCase struct {
	name       string
	n1, n2, n3 int
	axes       [2]npb.Axis
	dims       [2]int
	depth      int
}

var haloCases = []haloCase{
	{"yz-depth1-3x3-uneven", 5, 10, 11, [2]npb.Axis{npb.AxisY, npb.AxisZ}, [2]int{3, 3}, 1}, // BT's cut
	{"yz-depth2-2x2-uneven", 4, 9, 5, [2]npb.Axis{npb.AxisY, npb.AxisZ}, [2]int{2, 2}, 2},   // SP's cut
	{"xy-depth1-4x2-uneven", 9, 5, 4, [2]npb.Axis{npb.AxisX, npb.AxisY}, [2]int{4, 2}, 1},   // LU's cut
	{"xy-depth2-2x2", 6, 4, 3, [2]npb.Axis{npb.AxisX, npb.AxisY}, [2]int{2, 2}, 2},
	{"yz-depth1-serial", 3, 4, 5, [2]npb.Axis{npb.AxisY, npb.AxisZ}, [2]int{1, 1}, 1},
}

// Tags in the shape each benchmark uses them: distinct per cut, direction
// and depth, so a receive that matched the wrong face would fail the test.
var haloTags = npb.HaloTags{{{10, 11}, {12, 13}}, {{14, 15}, {16, 17}}}

func (hc haloCase) tiling(t testing.TB) npb.Tiling {
	t.Helper()
	p := npb.Problem{Class: "T", N1: hc.n1, N2: hc.n2, N3: hc.n3, Trips: 1, Dt: 0.01}
	tl, err := npb.NewTiling("test", p, hc.axes, hc.dims, hc.depth, haloTags)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

// cellValue is the value every rank stores at global cell g, component c.
func cellValue(c int, g [3]int) float64 {
	return float64(c) + 10*float64(g[0]) + 1000*float64(g[1]) + 100000*float64(g[2])
}

// TestHaloExchange fills each rank's interior with a function of the global
// cell, every ghost with a sentinel, exchanges, and checks every ghost of
// every rank: across a cut face with a neighbour it holds the neighbour's
// interior, at a physical boundary of a cut axis the edge plane (zero
// gradient), one plane per halo depth; ghosts along the uncut axis and the
// layer's edges and corners keep the sentinel, and the interior is
// unchanged.
func TestHaloExchange(t *testing.T) {
	const sentinel = -1
	for _, hc := range haloCases {
		t.Run(hc.name, func(t *testing.T) {
			tl := hc.tiling(t)
			procs := hc.dims[0] * hc.dims[1]
			err := mpi.Run(procs, func(c *mpi.Comm) {
				r := npb.NewRank(c, tl)
				u := r.Field(hc.depth)
				ext := [3]int{u.Nx, u.Ny, u.Nz}
				total := [3]int{hc.n1, hc.n2, hc.n3}
				lo := [3]int{r.Owned(npb.AxisX).Lo, r.Owned(npb.AxisY).Lo, r.Owned(npb.AxisZ).Lo}
				global := func(l [3]int) (g [3]int) {
					for a := range g {
						g[a] = lo[a] + l[a]
					}
					return g
				}
				for i := range u.Data {
					u.Data[i] = sentinel
				}
				for k := 0; k < u.Nz; k++ {
					for j := 0; j < u.Ny; j++ {
						for i := 0; i < u.Nx; i++ {
							for comp := 0; comp < 5; comp++ {
								u.Data[u.Idx(i, j, k)+comp] = cellValue(comp, global([3]int{i, j, k}))
							}
						}
					}
				}
				r.Exchange(u)
				g := hc.depth
				for k := -g; k < u.Nz+g; k++ {
					for j := -g; j < u.Ny+g; j++ {
						for i := -g; i < u.Nx+g; i++ {
							l := [3]int{i, j, k}
							outside := -1 // the one axis l is outside the tile along
							corner := false
							for a := range l {
								if l[a] < 0 || l[a] >= ext[a] {
									corner = outside >= 0
									outside = a
								}
							}
							cut := outside == int(hc.axes[0]) || outside == int(hc.axes[1])
							for comp := 0; comp < 5; comp++ {
								want := float64(sentinel)
								switch {
								case outside < 0:
									want = cellValue(comp, global(l))
								case !corner && cut:
									gl := global(l)
									gl[outside] = min(max(gl[outside], 0), total[outside]-1)
									want = cellValue(comp, gl)
								}
								if got := u.At(comp, i, j, k); got != want {
									panic(fmt.Sprintf("rank %d: u(%d, %d,%d,%d) = %v, want %v", c.Rank(), comp, i, j, k, got, want))
								}
							}
						}
					}
				}
			}, mpi.WithRecvTimeout(30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHaloDoesNotAllocate: the exchange runs every solver iteration inside
// timed windows. On more than one rank its faces ride the world's message
// pools, which -race empties.
func TestHaloDoesNotAllocate(t *testing.T) {
	for _, hc := range haloCases {
		procs := hc.dims[0] * hc.dims[1]
		if procs > 1 && npbtest.RaceEnabled() {
			continue
		}
		tl := hc.tiling(t)
		err := mpi.Run(procs, func(c *mpi.Comm) {
			r := npb.NewRank(c, tl)
			u := r.Field(hc.depth)
			if n := npbtest.AllocsInStep(c, func() { r.Exchange(u) }); n != 0 {
				t.Errorf("%s: Exchange allocates %v times per call, want 0", hc.name, n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTilingRefusesThinTiles: the one tile rule — every rank owns at least
// the halo's depth in planes along each cut axis.
func TestTilingRefusesThinTiles(t *testing.T) {
	p := npb.TinyProblem(5, 1)
	cut := [2]npb.Axis{npb.AxisY, npb.AxisZ}
	for _, tc := range []struct {
		dims  [2]int
		depth int
		ok    bool
	}{
		{[2]int{5, 1}, 1, true}, {[2]int{1, 6}, 1, false},
		{[2]int{2, 2}, 2, true}, {[2]int{3, 1}, 2, false},
	} {
		_, err := npb.NewTiling("test", p, cut, tc.dims, tc.depth, haloTags)
		if (err == nil) != tc.ok {
			t.Errorf("dims %v depth %d: err = %v, want ok = %v", tc.dims, tc.depth, err, tc.ok)
		}
	}
}

// BenchmarkHalo times one rank's ghost exchange per tile cell on each
// benchmark's class-W, four-rank cut, every rank exchanging in step.
func BenchmarkHalo(b *testing.B) {
	for _, hc := range []haloCase{
		{"BT", 32, 32, 32, [2]npb.Axis{npb.AxisY, npb.AxisZ}, [2]int{2, 2}, 1},
		{"SP", 36, 36, 36, [2]npb.Axis{npb.AxisY, npb.AxisZ}, [2]int{2, 2}, 2},
		{"LU", 33, 33, 33, [2]npb.Axis{npb.AxisX, npb.AxisY}, [2]int{2, 2}, 1},
	} {
		b.Run(hc.name, func(b *testing.B) {
			tl := hc.tiling(b)
			var cells float64
			err := mpi.Run(4, func(c *mpi.Comm) {
				r := npb.NewRank(c, tl)
				u := r.Field(hc.depth)
				for i := range u.Data {
					u.Data[i] = 1 + math.Mod(float64(i), 7)
				}
				r.Exchange(u) // sizes the mailboxes and pools
				c.Barrier()
				if c.Rank() == 0 {
					cells = float64(u.Nx * u.Ny * u.Nz)
					b.ResetTimer()
				}
				for n := 0; n < b.N; n++ {
					r.Exchange(u)
				}
				c.Barrier()
				if c.Rank() == 0 {
					b.StopTimer()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
		})
	}
}
