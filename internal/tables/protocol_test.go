package tables

import (
	"math"
	"net/url"
	"testing"

	"repro/internal/harness"
	"repro/internal/predict"
	"repro/internal/stats"
	"repro/internal/timing"
)

// TestMeasurementProtocol pins the measurement protocol: first what every
// preset resolves to — a change here changes what a table or a served
// query measures, and for everything but the trim rule, its cache keys —
// then how many blocks the trim rule drops from each end.
func TestMeasurementProtocol(t *testing.T) {
	t.Run("presets", func(t *testing.T) {
		exp := func(id string) Experiment {
			e, ok := Find(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			return e
		}
		served, err := ParseQuery(url.Values{})
		if err != nil {
			t.Fatal(err)
		}
		lattice, err := ParseLattice("bench=BT&grid=6")
		if err != nil {
			t.Fatal(err)
		}
		_, sweep, _ := exp("4.1").sweepAxis(Scale{})
		_, fastSweep, _ := exp("4.1").sweepAxis(Scale{}.Fast())
		eng, err := BackendConfig{}.Engine(served)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			preset string
			got    timing.Protocol
			want   timing.Protocol
		}{
			{"paper class S (2b)", exp("2b").protocol(Scale{}), timing.Protocol{Blocks: 5, Passes: 1, ActualRuns: 3}},
			{"paper class W (3b)", exp("3b").protocol(Scale{}), timing.Protocol{Blocks: 5, Passes: 1, ActualRuns: 3}},
			{"paper class A (4b)", exp("4b").protocol(Scale{}), timing.Protocol{Blocks: 5, Passes: 1, ActualRuns: 3}},
			{"paper class B (6c)", exp("6c").protocol(Scale{}), timing.Protocol{Blocks: 3, Passes: 1, ActualRuns: 2}},
			{"paper -fast class S", exp("2b").protocol(Scale{}.Fast()), timing.Protocol{Blocks: 2, Passes: 1, ActualRuns: 3}},
			{"paper -fast class B", exp("8c").protocol(Scale{}.Fast()), timing.Protocol{Blocks: 2, Passes: 1, ActualRuns: 2}},
			{"paper -blocks 4 -passes 2", exp("6c").protocol(Scale{Blocks: 4, Passes: 2}), timing.Protocol{Blocks: 4, Passes: 2, ActualRuns: 2}},
			{"ablation-trim, raw mean", func() timing.Protocol { e := exp("ablation-trim"); e.trim = -1; return e.protocol(Scale{}) }(), timing.Protocol{Blocks: 5, Passes: 1, Trim: -1, ActualRuns: 3}},
			{"couple flag defaults", QueryProtocol(predict.Query{}), timing.Protocol{Blocks: 3, Passes: 1, ActualRuns: 3}},
			{"kcserved ParseQuery defaults", QueryProtocol(served), timing.Protocol{Blocks: 3, Passes: 1, ActualRuns: 3}},
			{"BackendConfig.Engine", eng.Opts.Protocol(), timing.Protocol{Blocks: 3, Passes: 1, ActualRuns: 3}},
			{"-lattice item", QueryProtocol(lattice[0]), timing.Protocol{Blocks: 3, Passes: 1, ActualRuns: 3}},
			{"zero harness.Options", harness.Options{}.Protocol(), timing.Protocol{Blocks: 3, Passes: 1, ActualRuns: 1}},
			{"§4.1 sweep axis", sweep.Protocol(), timing.Protocol{Blocks: 3, Passes: 1, Trim: -1, ActualRuns: 3}},
			{"§4.1 sweep axis, -fast", fastSweep.Protocol(), timing.Protocol{Blocks: 2, Passes: 1, Trim: -1, ActualRuns: 3}},
		} {
			if c.got != c.want {
				t.Errorf("%s resolves to %+v, want %+v", c.preset, c.got, c.want)
			}
		}
		if served.Blocks != 3 || served.Passes != 1 {
			t.Errorf("ParseQuery defaults blocks=%d passes=%d, want the QueryProtocol's 3 and 1", served.Blocks, served.Passes)
		}
	})

	t.Run("trim rule", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		for _, c := range []struct {
			name    string
			trim    float64
			applied func(blocks int) float64
			// dropped[n-1] is how many of n blocks are dropped from each end.
			dropped [9]int
		}{
			{"0 (default)", 0, defaultTrim, [9]int{0, 0, 1, 1, 1, 2, 2, 2, 3}},
			{"-0.0 (default)", negZero, defaultTrim, [9]int{0, 0, 1, 1, 1, 2, 2, 2, 3}},
			{"NaN (default)", math.NaN(), defaultTrim, [9]int{0, 0, 1, 1, 1, 2, 2, 2, 3}},
			{"-1 (raw mean)", -1, func(int) float64 { return 0 }, [9]int{}},
			{"0.2", 0.2, func(int) float64 { return 0.2 }, [9]int{0, 0, 0, 0, 1, 1, 1, 1, 1}},
			// The 0.1 the timing package used to document as its default
			// at 5 or more blocks drops nothing below 10 blocks: it was
			// always the raw mean.
			{"0.1", 0.1, func(int) float64 { return 0.1 }, [9]int{}},
		} {
			for n := 1; n <= 9; n++ {
				// Powers of two, largest first: each number of dropped
				// blocks leaves a different mean.
				ascending := make([]float64, n)
				blocks := make([]float64, n)
				for i := range blocks {
					ascending[i] = math.Ldexp(1, i)
					blocks[n-1-i] = ascending[i]
				}
				perPass, applied := timing.Protocol{Blocks: n, Trim: c.trim}.Aggregate(blocks)
				if want := c.applied(n); applied != want {
					t.Errorf("trim %s at %d blocks: applied %v, want %v", c.name, n, applied, want)
				}
				got := -1
				for d := 0; 2*d < n; d++ {
					if stats.Mean(ascending[d:n-d]) == perPass {
						got = d
					}
				}
				if got != c.dropped[n-1] {
					t.Errorf("trim %s at %d blocks drops %d per side, want %d", c.name, n, got, c.dropped[n-1])
				}
			}
		}
	})
}

// defaultTrim is the trim a zero request applies at n blocks.
func defaultTrim(n int) float64 {
	if n >= 3 {
		return timing.DefaultTrim
	}
	return 0
}
