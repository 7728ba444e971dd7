package core

import (
	"reflect"
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

func TestWindowsContaining(t *testing.T) {
	// The paper: for L=3 over A,B,C,D, kernel A appears in ABC, CDA, DAB.
	r := Ring{"A", "B", "C", "D"}
	ws, err := r.WindowsContaining("A", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"A", "B", "C"}, {"C", "D", "A"}, {"D", "A", "B"}}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("WindowsContaining(A, 3) = %v, want %v", ws, want)
	}
	// Every kernel appears in exactly L windows for L < len(ring).
	for _, k := range r {
		for L := 1; L < len(r); L++ {
			ws, err := r.WindowsContaining(k, L)
			if err != nil {
				t.Fatal(err)
			}
			if len(ws) != L {
				t.Errorf("kernel %s, L=%d: in %d windows, want %d", k, L, len(ws), L)
			}
		}
	}
	if _, err := r.WindowsContaining("Z", 2); err == nil {
		t.Error("unknown kernel should fail")
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
