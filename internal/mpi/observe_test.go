package mpi

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// observedRun runs fn on n observed ranks and returns the snapshot and
// spans.
func observedRun(t *testing.T, n int, spans bool, fn func(*Comm)) (obs.Snapshot, []obs.Span) {
	t.Helper()
	var rec *obs.Trace
	if spans {
		rec = obs.NewTrace(nil)
	}
	reg := obs.NewRegistry()
	if err := Run(n, fn, WithObserver(NewObserver(reg, rec))); err != nil {
		t.Fatal(err)
	}
	return reg.Snapshot(), rec.Spans()
}

func TestObserverCountsP2P(t *testing.T) {
	snap, spans := observedRun(t, 2, true, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			buf := make([]float64, 3)
			c.Recv(0, 7, buf)
		}
	})
	if c, _ := snap.Counter("mpi.send.count"); c.Value != 1 {
		t.Errorf("send.count = %d, want 1", c.Value)
	}
	if c, _ := snap.Counter("mpi.send.bytes"); c.Value != 24 {
		t.Errorf("send.bytes = %d, want 24", c.Value)
	}
	if c, _ := snap.Counter("mpi.recv.count"); c.Value != 1 {
		t.Errorf("recv.count = %d, want 1", c.Value)
	}
	if h, _ := snap.Histogram("mpi.recv.wait_ns"); h.Count != 1 {
		t.Errorf("recv.wait_ns count = %d, want 1", h.Count)
	}
	if h, _ := snap.Histogram("mpi.queue.depth"); h.Count != 1 || h.Min < 1 {
		t.Errorf("queue.depth = %+v, want one observation >= 1", h)
	}
	var sawSend, sawRecv bool
	for _, s := range spans {
		switch s.Name {
		case "send":
			sawSend = true
			if s.Rank != 0 || s.Bytes != 24 || !strings.Contains(s.Detail, "dst=1") {
				t.Errorf("send span = %+v", s)
			}
		case "recv":
			sawRecv = true
			if s.Rank != 1 || s.Bytes != 24 || s.Wait > s.Elapsed {
				t.Errorf("recv span = %+v", s)
			}
		}
	}
	if !sawSend || !sawRecv {
		t.Errorf("spans missing send/recv: %+v", spans)
	}
}

func TestObserverCollectiveHistograms(t *testing.T) {
	const n = 4
	snap, spans := observedRun(t, n, true, func(c *Comm) {
		buf := []float64{float64(c.Rank())}
		out := make([]float64, 1)
		c.Allreduce(OpSum, buf, out)
		c.Barrier()
	})
	if c, _ := snap.Counter("mpi.collective.allreduce.count"); c.Value != n {
		t.Errorf("allreduce.count = %d, want %d (one per rank)", c.Value, n)
	}
	if h, _ := snap.Histogram("mpi.collective.allreduce.bytes"); h.Count != n || h.Min != 8 || h.Max != 8 {
		t.Errorf("allreduce.bytes = %+v", h)
	}
	if h, _ := snap.Histogram("mpi.collective.allreduce.wait_ns"); h.Count != n || h.Sum <= 0 {
		t.Errorf("allreduce.wait_ns = %+v", h)
	}
	// Allreduce is reduce+bcast: the inner collectives observe too.
	if c, _ := snap.Counter("mpi.collective.reduce.count"); c.Value != n {
		t.Errorf("reduce.count = %d, want %d", c.Value, n)
	}
	if c, _ := snap.Counter("mpi.collective.barrier.count"); c.Value != n {
		t.Errorf("barrier.count = %d, want %d", c.Value, n)
	}
	perOp := map[string]int{}
	for _, s := range spans {
		perOp[s.Name]++
	}
	if perOp["allreduce"] != n || perOp["barrier"] != n {
		t.Errorf("span ops = %v", perOp)
	}
}

func TestObserverPerKernelAttribution(t *testing.T) {
	snap, _ := observedRun(t, 2, false, func(c *Comm) {
		c.SetPhase("COPY_FACES")
		if c.Rank() == 0 {
			c.Send(1, 1, make([]float64, 10))
		} else {
			c.Recv(0, 1, make([]float64, 10))
		}
		c.SetPhase("X_SOLVE")
		if c.Rank() == 0 {
			c.Send(1, 2, make([]float64, 2))
		} else {
			c.Recv(0, 2, make([]float64, 2))
		}
		c.SetPhase("")
	})
	if c, ok := snap.Counter("mpi.kernel.COPY_FACES.send.bytes"); !ok || c.Value != 80 {
		t.Errorf("COPY_FACES send.bytes = %+v %v, want 80", c, ok)
	}
	if c, ok := snap.Counter("mpi.kernel.X_SOLVE.recv.count"); !ok || c.Value != 1 {
		t.Errorf("X_SOLVE recv.count = %+v %v, want 1", c, ok)
	}
	if c, ok := snap.Counter("mpi.kernel.X_SOLVE.recv.wait_ns"); !ok || c.Value < 0 {
		t.Errorf("X_SOLVE recv.wait_ns = %+v %v", c, ok)
	}
}

func TestObserverContextChurn(t *testing.T) {
	snap, _ := observedRun(t, 4, false, func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		sub.Barrier()
		whole := c.Split(0, c.Rank())
		whole.Barrier()
	})
	// A two-color Split creates 2 contexts, a one-color Split 1.
	if c, _ := snap.Counter("mpi.context.created"); c.Value != 3 {
		t.Errorf("context.created = %d, want 3", c.Value)
	}
	if c, _ := snap.Counter("mpi.collective.split.count"); c.Value != 8 {
		t.Errorf("split.count = %d, want 8 (4 ranks × 2 Splits)", c.Value)
	}
}

func TestObserverTransferTimeWithNetModel(t *testing.T) {
	rec := obs.NewTrace(nil)
	reg := obs.NewRegistry()
	ob := NewObserver(reg, rec)
	err := Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 1000))
		} else {
			c.Recv(0, 0, make([]float64, 1000))
		}
	}, WithObserver(ob), WithNetModel(NetModel{Latency: 2 * time.Millisecond, Bandwidth: 100e6}))
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	h, ok := snap.Histogram("mpi.recv.transfer_ns")
	if !ok || h.Count != 1 {
		t.Fatalf("transfer_ns = %+v %v, want one observation", h, ok)
	}
	if h.Sum < int64(time.Millisecond) {
		t.Errorf("transfer time %dns too small for a 2ms-latency model", h.Sum)
	}
}

func TestUnobservedWorldHasNoPhases(t *testing.T) {
	if err := Run(2, func(c *Comm) {
		c.SetPhase("K") // must be a harmless no-op
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
		} else {
			c.Recv(0, 0, make([]float64, 1))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestObserverSharedAcrossWorlds(t *testing.T) {
	reg := obs.NewRegistry()
	ob := NewObserver(reg, nil)
	for i := 0; i < 3; i++ {
		err := Run(2, func(c *Comm) { c.Barrier() }, WithObserver(ob))
		if err != nil {
			t.Fatal(err)
		}
	}
	if c, _ := reg.Snapshot().Counter("mpi.collective.barrier.count"); c.Value != 6 {
		t.Errorf("barrier.count = %d, want 6 accumulated across 3 worlds", c.Value)
	}
}
