package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestRingValidate(t *testing.T) {
	if err := (Ring{"a", "b"}).Validate(); err != nil {
		t.Errorf("valid ring rejected: %v", err)
	}
	for _, bad := range []Ring{{}, {"a", "a"}, {"a", ""}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("ring %v should be invalid", bad)
		}
	}
}

func TestWindowsPairwise(t *testing.T) {
	r := Ring{"A", "B", "C", "D"}
	ws, err := r.Windows(2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "A"}}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("Windows(2) = %v, want %v", ws, want)
	}
	// The windows share one array; appending to one must not write into
	// the next.
	for i := range ws {
		_ = append(ws[i], "X")
	}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("after appending to each window, Windows(2) = %v, want %v", ws, want)
	}
}

func TestWindowsChainOfThree(t *testing.T) {
	// The paper's Section 3 example: ring A,B,C,D with L=3 gives windows
	// ABC, BCD, CDA, DAB.
	r := Ring{"A", "B", "C", "D"}
	ws, err := r.Windows(3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"A", "B", "C"}, {"B", "C", "D"}, {"C", "D", "A"}, {"D", "A", "B"}}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("Windows(3) = %v, want %v", ws, want)
	}
}

func TestWindowsFullRingDeduped(t *testing.T) {
	r := Ring{"A", "B", "C"}
	ws, err := r.Windows(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 || !reflect.DeepEqual(ws[0], []string{"A", "B", "C"}) {
		t.Errorf("Windows(len) = %v, want single full ring", ws)
	}
}

func TestWindowsLengthOne(t *testing.T) {
	r := Ring{"A", "B"}
	ws, err := r.Windows(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ws, [][]string{{"A"}, {"B"}}) {
		t.Errorf("Windows(1) = %v", ws)
	}
}

func TestWindowsOutOfRange(t *testing.T) {
	r := Ring{"A", "B", "C"}
	for _, L := range []int{0, -1, 4} {
		if _, err := r.Windows(L); err == nil {
			t.Errorf("Windows(%d) should fail", L)
		}
	}
}

// TestWindowsHoldEachKernel pins the index set of the paper's
// coefficient formulas, which the degradation ladder counts on: each
// kernel lies in exactly L of the length-L windows, or in the one window
// at L = len(ring).
func TestWindowsHoldEachKernel(t *testing.T) {
	// The paper: for L=3 over A,B,C,D, kernel A appears in ABC, CDA, DAB.
	r := Ring{"A", "B", "C", "D"}
	for L := 1; L <= len(r); L++ {
		ws, err := r.Windows(L)
		if err != nil {
			t.Fatal(err)
		}
		want := L
		if L == len(r) {
			want = 1
		}
		for _, k := range r {
			var holding [][]string
			for _, w := range ws {
				if slices.Contains(w, k) {
					holding = append(holding, w)
				}
			}
			if len(holding) != want {
				t.Errorf("kernel %s, L=%d: in %d windows, want %d", k, L, len(holding), want)
			}
			if k == "A" && L == 3 {
				if w := [][]string{{"A", "B", "C"}, {"C", "D", "A"}, {"D", "A", "B"}}; !reflect.DeepEqual(holding, w) {
					t.Errorf("windows of length 3 holding A = %v, want %v", holding, w)
				}
			}
		}
	}
}

func TestKeyRoundTrip(t *testing.T) {
	w := []string{"Copy_Faces", "X_Solve", "Y_Solve"}
	key := Key(w)
	if key != "Copy_Faces|X_Solve|Y_Solve" {
		t.Errorf("Key = %q", key)
	}
	if got := strings.Split(key, "|"); !reflect.DeepEqual(got, w) {
		t.Errorf("splitting the key gives %v, want the window back", got)
	}
}

func TestKeyOrderSensitive(t *testing.T) {
	if Key([]string{"A", "B"}) == Key([]string{"B", "A"}) {
		t.Error("window keys must be order-sensitive")
	}
}
