package mpi

import (
	"fmt"
	"sort"
)

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, mirroring MPI_Comm_split. Ranks passing the same
// color land in the same sub-communicator, ordered by (key, parent rank).
// A negative color returns nil for that rank (MPI_UNDEFINED), but the rank
// still participates in the collective exchange that forms the groups.
func (c *Comm) Split(color, key int) *Comm {
	start := c.beginCollective("split")
	defer c.endCollective("split", 0, start)
	n := len(c.group)

	// Gather every rank's (color, key) on rank 0, decide the grouping and
	// fresh context ids there, then broadcast the assignment. Context ids
	// are allocated from the world's counter only on rank 0 so that all
	// members of a group agree on theirs.
	pairs := make([]float64, 2*n)
	c.gather(0, []float64{float64(color), float64(key)}, pairs)

	// assignment[r] = {ctx, newRank, groupSize, groupMembers...} flattened:
	// we broadcast, per rank, its context id and its new rank, plus the
	// full membership table so each rank can build its group slice.
	// Layout of the broadcast buffer:
	//   [0]            = number of groups g
	//   [1 .. n]       = ctx id of rank r's group (0 for undefined)
	//   [n+1 .. 2n]    = new rank of rank r within its group (-1 undefined)
	//   [2n+1 .. 3n]   = group id of rank r (-1 undefined)
	//   [3n+1 ...]     = concatenated member lists: for each group,
	//                    its size followed by parent ranks in new-rank order
	buf := make([]float64, 3*n+1+n+n)
	if c.rank == 0 {
		type member struct{ rank, color, key int }
		byColor := map[int][]member{}
		var colors []int
		for r := 0; r < n; r++ {
			col := int(pairs[2*r])
			k := int(pairs[2*r+1])
			if col < 0 {
				continue
			}
			if _, seen := byColor[col]; !seen {
				colors = append(colors, col)
			}
			byColor[col] = append(byColor[col], member{rank: r, color: col, key: k})
		}
		sort.Ints(colors)
		ctxOf := make([]float64, n)
		newRank := make([]float64, n)
		groupOf := make([]float64, n)
		for r := range newRank {
			newRank[r] = -1
			groupOf[r] = -1
		}
		var memberTable []float64
		for g, col := range colors {
			ms := byColor[col]
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].key != ms[j].key {
					return ms[i].key < ms[j].key
				}
				return ms[i].rank < ms[j].rank
			})
			ctx := int(c.world.nextCtx.Add(1))
			if ob := c.world.obs; ob != nil {
				ob.ctxCreated.Inc() // context-id churn: fresh matching context per group
			}
			memberTable = append(memberTable, float64(len(ms)))
			for nr, m := range ms {
				ctxOf[m.rank] = float64(ctx)
				newRank[m.rank] = float64(nr)
				groupOf[m.rank] = float64(g)
				memberTable = append(memberTable, float64(m.rank))
			}
		}
		buf[0] = float64(len(colors))
		copy(buf[1:1+n], ctxOf)
		copy(buf[1+n:1+2*n], newRank)
		copy(buf[1+2*n:1+3*n], groupOf)
		buf = append(buf[:1+3*n], memberTable...)
		// Pad to the fixed broadcast size so all ranks pass equal buffers.
		for len(buf) < 3*n+1+n+n {
			buf = append(buf, 0)
		}
	}
	// The member table's total length is at most n + #groups <= 2n, so the
	// fixed-size buffer above always fits it.
	c.Bcast(0, buf)

	if color < 0 {
		return nil
	}
	myCtx := int(buf[1+c.rank])
	myNewRank := int(buf[1+n+c.rank])
	myGroup := int(buf[1+2*n+c.rank])
	if myNewRank < 0 || myGroup < 0 {
		panic(fmt.Sprintf("mpi: Split bookkeeping failure for rank %d color %d", c.rank, color))
	}
	// Walk the member table to my group's member list.
	off := 1 + 3*n
	for g := 0; g < myGroup; g++ {
		sz := int(buf[off])
		off += 1 + sz
	}
	sz := int(buf[off])
	group := make([]int, sz)
	for i := 0; i < sz; i++ {
		parentRank := int(buf[off+1+i])
		group[i] = c.group[parentRank] // translate to world ranks
	}
	return &Comm{world: c.world, ctx: myCtx, rank: myNewRank, group: group}
}
