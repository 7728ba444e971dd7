package npb_test

import (
	"testing"

	"repro/internal/npb"
	"repro/internal/npb/npbtest"
)

// TestFieldZeroAndClone: npbtest.Clone, the reference copy the kernel
// tests compare with, copies without aliasing, and Zero clears a field.
func TestFieldZeroAndClone(t *testing.T) {
	f := npb.NewField(2, 3, 3, 3, 1)
	f.Data[f.Idx(1, 1, 1)] = 42
	g := npbtest.Clone(f)
	if g.At(0, 1, 1, 1) != 42 {
		t.Error("Clone lost data")
	}
	g.Data[g.Idx(1, 1, 1)] = 7
	if f.At(0, 1, 1, 1) != 42 {
		t.Error("Clone aliases original")
	}
	f.Zero()
	if f.At(0, 1, 1, 1) != 0 {
		t.Error("Zero left data")
	}
}
