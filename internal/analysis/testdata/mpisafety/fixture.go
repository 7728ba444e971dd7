// Package fixture exercises the mpisafety analyzer: collectives under
// rank-dependent control flow, the (peer,tag) pairing census, and reserved
// negative tags. See expect.txt for the findings this file must produce.
package fixture

import "repro/internal/mpi"

const (
	tagHalo       = 7
	tagOrphanRecv = 99
	tagOrphanSend = 55
)

func rankConditionalCollectives(c *mpi.Comm) {
	buf := make([]float64, 4)
	if c.Rank() == 0 {
		c.Barrier() // finding: not all ranks reach it
	}
	rank := c.WorldRank()
	if rank > 2 {
		c.Bcast(0, buf) // finding: condition derived from a rank variable
	} else {
		c.Allreduce(mpi.OpSum, buf, buf) // finding: else arm of a rank test
	}
	for i := 0; i < rank; i++ {
		c.Barrier() // finding: rank-dependent trip count
	}
	c.Barrier() // ok: unconditional
	if c.Size() > 1 {
		c.Allreduce(mpi.OpSum, buf, buf) // ok: size is rank-independent
	}
	sub := c.Split(0, c.Rank()) // ok: rank only appears as an argument
	if sub != nil {
		_ = sub.Rank()
	}
	if c.Rank() == 0 {
		//kcvet:ignore mpisafety fixture demonstrates a justified suppression
		c.Barrier()
	}
}

func pairedTags(c *mpi.Comm) {
	buf := make([]float64, 1)
	c.Send(1, tagHalo, buf) // ok: received below
	c.Recv(0, tagHalo, buf)
	c.Recv(0, tagOrphanRecv, buf) // finding: nothing ever sends 99
	c.Send(1, tagOrphanSend, buf) // finding: nothing ever receives 55
	c.Send(1, -3, buf)            // finding: reserved internal tag space
	c.Recv(0, -7, buf)            // finding: reserved internal tag space
	dynamic := c.Rank() + 100
	c.Send(1, dynamic, buf) // ok: dynamic tags are outside the census
}
