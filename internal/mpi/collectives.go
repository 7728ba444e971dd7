package mpi

import "fmt"

// Barrier blocks until every rank in the communicator has entered it.
// It uses the dissemination algorithm: ceil(log2 n) rounds of paired
// send/receive, correct for any communicator size.
func (c *Comm) Barrier() {
	start := c.beginCollective("barrier")
	defer c.endCollective("barrier", 0, start)
	n := len(c.group)
	if n == 1 {
		return
	}
	token := []float64{0}
	buf := make([]float64, 1)
	for step := 1; step < n; step <<= 1 {
		dst := (c.rank + step) % n
		src := (c.rank - step + n) % n
		c.send(dst, tagBarrier, token)
		c.recv(src, tagBarrier, buf)
	}
}

// Bcast broadcasts buf from root to every rank using a binomial tree.
// On non-root ranks buf is overwritten with root's data; every rank must
// pass a buffer of the same length.
func (c *Comm) Bcast(root int, buf []float64) {
	start := c.beginCollective("bcast")
	defer c.endCollective("bcast", 8*len(buf), start)
	n := len(c.group)
	if n == 1 {
		return
	}
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: Bcast root %d out of range [0,%d)", root, n))
	}
	relrank := (c.rank - root + n) % n

	// Receive phase: a non-root rank receives from the rank that differs
	// in its lowest set bit.
	mask := 1
	for mask < n {
		if relrank&mask != 0 {
			src := ((relrank &^ mask) + root) % n
			c.recv(src, tagBcast, buf)
			break
		}
		mask <<= 1
	}
	// Send phase: forward down the remaining subtrees.
	mask >>= 1
	for mask > 0 {
		if relrank+mask < n {
			dst := ((relrank + mask) + root) % n
			c.send(dst, tagBcast, buf)
		}
		mask >>= 1
	}
}

// reduce combines each rank's contribution elementwise with op, leaving the
// result in out on root (out is ignored on other ranks and may be nil
// there). in and out must not alias. Every rank must pass equal-length in.
// Allreduce is its only caller.
func (c *Comm) reduce(root int, op Op, in []float64, out []float64) {
	start := c.beginCollective("reduce")
	defer c.endCollective("reduce", 8*len(in), start)
	n := len(c.group)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: reduce root %d out of range [0,%d)", root, n))
	}
	// Scratch from the message pool: LU's SSOR_RS reduces its norms inside
	// timed windows, where two slices a call would be the only garbage.
	accP, tmpP := c.world.getBuf(len(in)), c.world.getBuf(len(in))
	defer c.world.putBuf(accP)
	defer c.world.putBuf(tmpP)
	acc, tmp := accP.f64, tmpP.f64
	copy(acc, in)
	relrank := (c.rank - root + n) % n
	mask := 1
	for mask < n {
		if relrank&mask != 0 {
			dst := ((relrank &^ mask) + root) % n
			c.send(dst, tagReduce, acc)
			break
		}
		src := relrank | mask
		if src < n {
			wsrc := (src + root) % n
			c.recv(wsrc, tagReduce, tmp)
			for i := range acc {
				acc[i] = op(acc[i], tmp[i])
			}
		}
		mask <<= 1
	}
	if c.rank == root {
		if len(out) < len(in) {
			panic("mpi: reduce output buffer too small on root")
		}
		copy(out, acc)
	}
}

// Allreduce combines each rank's contribution elementwise with op and
// leaves the result in out on every rank. Implemented as a reduce to rank 0
// followed by a broadcast, which keeps the result bit-identical across
// ranks (important for the NPB verification stages).
func (c *Comm) Allreduce(op Op, in []float64, out []float64) {
	start := c.beginCollective("allreduce")
	defer c.endCollective("allreduce", 8*len(in), start)
	if len(out) < len(in) {
		panic("mpi: Allreduce output buffer too small")
	}
	c.reduce(0, op, in, out)
	c.Bcast(0, out[:len(in)])
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(op Op, x float64) float64 {
	in := [1]float64{x}
	var out [1]float64
	c.Allreduce(op, in[:], out[:])
	return out[0]
}

// gather collects each rank's equal-length contribution into out on root,
// ordered by rank: out[r*len(in) : (r+1)*len(in)] holds rank r's data.
// out is ignored on non-root ranks. Split is its only caller.
func (c *Comm) gather(root int, in []float64, out []float64) {
	start := c.beginCollective("gather")
	defer c.endCollective("gather", 8*len(in), start)
	n := len(c.group)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("mpi: gather root %d out of range [0,%d)", root, n))
	}
	if c.rank != root {
		c.send(root, tagGather, in)
		return
	}
	if len(out) < n*len(in) {
		panic("mpi: gather output buffer too small on root")
	}
	copy(out[root*len(in):], in)
	tmp := make([]float64, len(in))
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		c.recv(r, tagGather, tmp)
		copy(out[r*len(in):], tmp)
	}
}

// Alltoall performs a complete exchange: rank r sends
// in[d*k:(d+1)*k] to rank d and receives rank s's block into
// out[s*k:(s+1)*k], where k = len(in)/Size(). Implemented with n-1
// pairwise shifted exchanges (plus the local copy), which cannot deadlock
// because sends are eager.
func (c *Comm) Alltoall(in []float64, out []float64) {
	start := c.beginCollective("alltoall")
	defer c.endCollective("alltoall", 8*len(in), start)
	n := len(c.group)
	if len(in)%n != 0 {
		panic(fmt.Sprintf("mpi: Alltoall input length %d not divisible by communicator size %d", len(in), n))
	}
	k := len(in) / n
	if len(out) < len(in) {
		panic("mpi: Alltoall output buffer too small")
	}
	copy(out[c.rank*k:(c.rank+1)*k], in[c.rank*k:(c.rank+1)*k])
	for step := 1; step < n; step++ {
		dst := (c.rank + step) % n
		src := (c.rank - step + n) % n
		c.send(dst, tagAlltoall, in[dst*k:(dst+1)*k])
		c.recv(src, tagAlltoall, out[src*k:(src+1)*k])
	}
}
