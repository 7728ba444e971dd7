package mpi

import (
	"testing"
)

func TestSplitByParity(t *testing.T) {
	const n = 9
	run(t, n, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		wantSize := (n + 1) / 2 // evens: 5 of 9
		if c.Rank()%2 == 1 {
			wantSize = n / 2
		}
		if sub.Size() != wantSize {
			t.Errorf("rank %d: sub size %d, want %d", c.Rank(), sub.Size(), wantSize)
		}
		if wantRank := c.Rank() / 2; sub.Rank() != wantRank {
			t.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// The sub-communicator must be fully functional.
		got := sub.AllreduceScalar(OpSum, float64(c.Rank()))
		want := 0.0
		for r := c.Rank() % 2; r < n; r += 2 {
			want += float64(r)
		}
		if got != want {
			t.Errorf("rank %d: sub allreduce = %v, want %v", c.Rank(), got, want)
		}
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	const n = 4
	run(t, n, func(c *Comm) {
		// Reverse the ordering via the key.
		sub := c.Split(0, -c.Rank())
		if want := n - 1 - c.Rank(); sub.Rank() != want {
			t.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	const n = 5
	run(t, n, func(c *Comm) {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.Split(color, c.Rank())
		if c.Rank() == 2 {
			if sub != nil {
				t.Error("negative color should return nil comm")
			}
			return
		}
		if sub.Size() != n-1 {
			t.Errorf("rank %d: size %d, want %d", c.Rank(), sub.Size(), n-1)
		}
		// Collective over the remaining members still works.
		got := sub.AllreduceScalar(OpSum, 1)
		if got != float64(n-1) {
			t.Errorf("rank %d: allreduce = %v", c.Rank(), got)
		}
	})
}

func TestSplitIsolation(t *testing.T) {
	// Messages in a sub-communicator must not be visible to the parent,
	// even with identical ranks and tags.
	run(t, 2, func(c *Comm) {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			sub.Send(1, 3, []float64{111})
			c.Send(1, 3, []float64{222})
		} else {
			buf := make([]float64, 1)
			// Parent recv first: must get the parent message even though
			// the sub message was sent first.
			c.Recv(0, 3, buf)
			if buf[0] != 222 {
				t.Errorf("parent recv got %v, want 222", buf[0])
			}
			sub.Recv(0, 3, buf)
			if buf[0] != 111 {
				t.Errorf("sub recv got %v, want 111", buf[0])
			}
		}
	})
}

func TestNestedSplit(t *testing.T) {
	const n = 8
	run(t, n, func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank())          // two halves of 4
		quad := half.Split(half.Rank()/2, half.Rank()) // pairs
		if quad.Size() != 2 {
			t.Errorf("rank %d: quad size %d", c.Rank(), quad.Size())
		}
		got := quad.AllreduceScalar(OpSum, float64(c.Rank()))
		// Pairs are (0,1),(2,3),(4,5),(6,7).
		base := (c.Rank() / 2) * 2
		if want := float64(base + base + 1); got != want {
			t.Errorf("rank %d: pair sum = %v, want %v", c.Rank(), got, want)
		}
	})
}

func TestCartBasics(t *testing.T) {
	run(t, 6, func(c *Comm) {
		cart := NewCart(c, 2, 3)
		co := cart.Coords()
		if want := []int{c.Rank() / 3, c.Rank() % 3}; co[0] != want[0] || co[1] != want[1] {
			t.Errorf("rank %d coords %v, want %v", c.Rank(), co, want)
		}
	})
}

func TestCartShift(t *testing.T) {
	run(t, 9, func(c *Comm) {
		cart := NewCart(c, 3, 3)
		row, col := c.Rank()/3, c.Rank()%3
		src, dst := cart.Shift(1, 1) // shift along columns
		wantSrc, wantDst := -1, -1
		if col > 0 {
			wantSrc = row*3 + col - 1
		}
		if col < 2 {
			wantDst = row*3 + col + 1
		}
		if src != wantSrc || dst != wantDst {
			t.Errorf("rank %d shift(1,1): (%d,%d), want (%d,%d)", c.Rank(), src, dst, wantSrc, wantDst)
		}
	})
}

func TestCartSubLineCommunicators(t *testing.T) {
	run(t, 6, func(c *Comm) {
		cart := NewCart(c, 2, 3)
		rows := cart.Sub(1) // keep dim 1: communicators along each row
		if rows.Size() != 3 {
			t.Errorf("rank %d: row comm size %d", c.Rank(), rows.Size())
		}
		if want := c.Rank() % 3; rows.Rank() != want {
			t.Errorf("rank %d: row comm rank %d, want %d", c.Rank(), rows.Rank(), want)
		}
		// Sum along the row.
		got := rows.AllreduceScalar(OpSum, float64(c.Rank()))
		base := (c.Rank() / 3) * 3
		want := float64(base + base + 1 + base + 2)
		if got != want {
			t.Errorf("rank %d: row sum = %v, want %v", c.Rank(), got, want)
		}
	})
}

func TestCartDimsMismatchPanics(t *testing.T) {
	err := Run(4, func(c *Comm) {
		NewCart(c, 3, 2) // 6 != 4
	})
	if err == nil {
		t.Error("NewCart with wrong dims should panic")
	}
}
