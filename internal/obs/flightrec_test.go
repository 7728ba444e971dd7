package obs

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// mkTrace builds a finished trace by hand — the recorder only reads
// ID/Seq/Total/Err and the span tree.
func mkTrace(seq uint64, total time.Duration, errMsg string) *Trace {
	t := &Trace{
		ID:       "t-test",
		Endpoint: "predict",
		Seq:      seq,
		Total:    total,
		Status:   200,
		Err:      errMsg,
	}
	if errMsg != "" {
		t.Status = 500
	}
	t.clock = fakeClock(0)
	t.spans = []Span{{Name: "predict", Rank: -1, Track: TrackStages, Elapsed: total, Parent: -1}}
	return t
}

// TestFlightRecorderSlowestInvariant: after any observation sequence the
// retained set is exactly the cap slowest traces, ordered by
// (Total desc, arrival asc). Observations arrive in a scrambled order to
// exercise the insert position everywhere.
func TestFlightRecorderSlowestInvariant(t *testing.T) {
	f := NewFlightRecorder(4, 4)
	// Totals observed: 5,1,9,3,7,9,2,8 ms (seq = arrival order).
	totals := []int{5, 1, 9, 3, 7, 9, 2, 8}
	for i, ms := range totals {
		f.Observe(mkTrace(uint64(i+1), time.Duration(ms)*time.Millisecond, ""))
	}
	d := f.Snapshot()
	if d.Seen != int64(len(totals)) {
		t.Errorf("seen = %d, want %d", d.Seen, len(totals))
	}
	// Slowest 4 of {5,1,9,3,7,9,2,8}: 9, 9, 8, 7 ms.
	wantTotals := []int64{9e6, 9e6, 8e6, 7e6}
	if len(d.Slowest) != 4 {
		t.Fatalf("retained %d, want 4", len(d.Slowest))
	}
	for i, td := range d.Slowest {
		if td.TotalNs != wantTotals[i] {
			t.Errorf("slowest[%d].TotalNs = %d, want %d", i, td.TotalNs, wantTotals[i])
		}
	}
}

// TestFlightRecorderSlowTieBreak: equal totals retain the earlier
// arrival first, and a later equal-total trace still evicts a strictly
// smaller one.
func TestFlightRecorderSlowTieBreak(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	a := mkTrace(1, time.Millisecond, "")
	b := mkTrace(2, 2*time.Millisecond, "")
	c := mkTrace(3, 2*time.Millisecond, "")
	a.ID, b.ID, c.ID = "a", "b", "c"
	f.Observe(a)
	f.Observe(b)
	f.Observe(c) // ties with b; must rank after b and evict a
	d := f.Snapshot()
	if len(d.Slowest) != 2 || d.Slowest[0].ID != "b" || d.Slowest[1].ID != "c" {
		ids := []string{}
		for _, td := range d.Slowest {
			ids = append(ids, td.ID)
		}
		t.Fatalf("slowest IDs = %v, want [b c]", ids)
	}
}

// TestFlightRecorderErroredRing: the errored ring keeps the most recent
// cap errored traces in arrival order and counts evictions.
func TestFlightRecorderErroredRing(t *testing.T) {
	f := NewFlightRecorder(2, 3)
	for i := 1; i <= 5; i++ {
		f.Observe(mkTrace(uint64(i), time.Duration(i)*time.Millisecond, "err"))
	}
	f.Observe(mkTrace(6, 6*time.Millisecond, "")) // clean: not in the ring
	d := f.Snapshot()
	if len(d.Errored) != 3 {
		t.Fatalf("errored retained %d, want 3", len(d.Errored))
	}
	for i, want := range []int64{3e6, 4e6, 5e6} {
		if d.Errored[i].TotalNs != want {
			t.Errorf("errored[%d].TotalNs = %d, want %d", i, d.Errored[i].TotalNs, want)
		}
	}
	if d.ErroredEvicted != 2 {
		t.Errorf("evicted = %d, want 2", d.ErroredEvicted)
	}
}

// TestFlightRecorderConcurrent: concurrent observation must not lose
// counts or corrupt the retained sets. Run with -race.
func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(8, 8)
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := uint64(w*each + i + 1)
				errMsg := ""
				if i%10 == 0 {
					errMsg = "err"
				}
				f.Observe(mkTrace(seq, time.Duration(seq)*time.Microsecond, errMsg))
			}
		}(w)
	}
	wg.Wait()
	d := f.Snapshot()
	if d.Seen != workers*each {
		t.Errorf("seen = %d, want %d", d.Seen, workers*each)
	}
	if len(d.Slowest) != 8 || len(d.Errored) != 8 {
		t.Errorf("retained %d slowest, %d errored, want 8 and 8", len(d.Slowest), len(d.Errored))
	}
	for i := 1; i < len(d.Slowest); i++ {
		if d.Slowest[i].TotalNs > d.Slowest[i-1].TotalNs {
			t.Errorf("slowest not ordered at %d: %d > %d", i, d.Slowest[i].TotalNs, d.Slowest[i-1].TotalNs)
		}
	}
}

// TestFlightDumpFileRoundTrip: WriteFile/ReadFlightDumpFile preserve the
// dump, including the span tree.
func TestFlightDumpFileRoundTrip(t *testing.T) {
	f := NewFlightRecorder(2, 2)
	tr := mkTrace(1, 3*time.Millisecond, "")
	tr.spans = append(tr.spans, Span{Name: "singleflight", Detail: "waited", Rank: -1, Track: TrackStages,
		Start: time.Millisecond, Elapsed: 2 * time.Millisecond, Parent: 0})
	f.Observe(tr)

	path := filepath.Join(t.TempDir(), "flight.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	d, err := ReadFlightDumpFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seen != 1 || len(d.Slowest) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	root := d.Slowest[0].Root
	if len(root.Children) != 1 || root.Children[0].Name != "singleflight" ||
		root.Children[0].Detail != "waited" || root.Children[0].DurNs != 2e6 {
		t.Fatalf("span tree = %+v", root)
	}
}
