package obs

import (
	"sync"
	"testing"
	"time"
)

// TestTraceConcurrentStress pins the Trace concurrency contract
// documented on the type: Record and StartChild append atomically,
// Spans returns consistent snapshots while recording continues, no
// span is ever observed half-written, and an End racing other goroutines'
// appends is never lost. Run with -race; the readers churn deliberately
// while rank-style writers fan whole spans in and stage-style writers
// open and close spans across the same list's regrowths.
func TestTraceConcurrentStress(t *testing.T) {
	r := NewTrace(fakeClock(time.Microsecond)) // every reading advances, so a kept End means Elapsed > 0
	const writers, readers, perWriter = 8, 4, 300

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: every snapshot they take must be internally consistent —
	// each span fully formed (the op marker and byte payload written by
	// the same Record call) and lengths monotonically non-decreasing.
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := len(r.Spans())
				if n < prev {
					t.Errorf("span count went backwards: %d after %d", n, prev)
					return
				}
				prev = n
				for _, s := range r.Spans() {
					if s.Track == TrackStages {
						continue // open-then-End spans: checked after the join
					}
					if s.Name != "op" || s.Bytes != 64 || s.Elapsed != time.Microsecond {
						t.Errorf("torn span observed: %+v", s)
						return
					}
				}
			}
		}()
	}

	var ww sync.WaitGroup
	for g := 0; g < writers; g++ {
		ww.Add(1)
		go func(rank int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(r.Now(), Span{Track: TrackMPI, Rank: rank, Name: "op", Detail: "detail", Bytes: 64, Elapsed: time.Microsecond})
			}
		}(g)
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				outer := r.Root().StartChild("stage", "")
				inner := outer.StartChild("step", "")
				inner.End()
				outer.End()
			}
		}()
	}
	ww.Wait()
	close(stop)
	wg.Wait()

	spans := r.Spans()
	if got, want := len(spans), 3*writers*perWriter; got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	for i, s := range spans {
		switch s.Name {
		case "stage":
			if s.Elapsed <= 0 || s.Parent != -1 {
				t.Fatalf("span %d lost its End or its place: %+v", i, s)
			}
		case "step":
			if s.Elapsed <= 0 || spans[s.Parent].Name != "stage" {
				t.Fatalf("span %d lost its End or its parent: %+v under %+v", i, s, spans[s.Parent])
			}
		}
	}
}
