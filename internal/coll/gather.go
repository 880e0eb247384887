package coll

import (
	"bgpcoll/internal/data"
	"bgpcoll/internal/mpi"
)

// gatherTag is the reserved point-to-point tag space for gather traffic.
const gatherTag = 1 << 20

// allgatherRingTagBase reserves tag space for the ring allgather.
const allgatherRingTagBase = 4 << 20

// gatherTorus implements MPI_Gather over the torus point-to-point substrate
// (the paper's future-work extension): every rank sends its block to the
// root, which assembles them in rank order. Small blocks travel eagerly,
// large blocks via rendezvous direct put.
func gatherTorus(r *mpi.Rank, send, recv data.Buf, root int, done func()) {
	seq := r.NextSeq()
	tag := gatherTag + int(seq%gatherTag)
	block := send.Len()
	if r.Rank() != root {
		r.SendThen(root, send, tag, done)
		return
	}
	if recv.Len() != block*r.Size() {
		panic("coll: gather receive buffer must hold Size() blocks")
	}
	// Post every receive up front so the transfers overlap; the torus and
	// the root's DMA arbitrate the fan-in.
	fanAtRoot(r, recv.Slice(root*block, block), send,
		func(src int) *mpi.Request { return r.Irecv(src, recv.Slice(src*block, block), tag) },
		done)
}

// fanAtRoot runs the root's side of a gather or scatter: start(peer) for
// every other rank in rank order, with the root's own block copied from
// ownSrc to ownDst by its core at its own position in that order, then a
// wait for every request.
func fanAtRoot(r *mpi.Rank, ownDst, ownSrc data.Buf, start func(peer int) *mpi.Request, done func()) {
	reqs := make([]*mpi.Request, 0, r.Size()-1)
	for p := 0; p < r.Rank(); p++ {
		reqs = append(reqs, start(p))
	}
	hw, n := r.Node().HW, ownDst.Len()
	hw.CopyThen(r.Proc(), n, hw.Cached(2*n), func() {
		data.Copy(ownDst, ownSrc)
		for p := r.Rank() + 1; p < r.Size(); p++ {
			reqs = append(reqs, start(p))
		}
		r.WaitAllThen(reqs, done)
	})
}

// allgatherTorus implements MPI_Allgather as a gather to rank 0 followed by
// the optimized broadcast of the assembled buffer — reusing the paper's
// shared-address machinery for the volume-dominant phase.
func allgatherTorus(r *mpi.Rank, send, recv data.Buf, done func()) {
	if recv.Len() != send.Len()*r.Size() {
		panic("coll: allgather receive buffer must hold Size() blocks")
	}
	r.GatherThen(send, recv, 0, func() { r.BcastThen(recv, 0, done) })
}

// allgatherRing implements MPI_Allgather with the classic ring algorithm:
// in step s every rank passes along the block it obtained s steps ago. P-1
// steps of one block each; bandwidth-optimal on a ring but without the
// torus broadcast's six-way parallelism, so the composed gather+bcast
// (allgather.torus) wins for large aggregate sizes.
func allgatherRing(r *mpi.Rank, send, recv data.Buf, done func()) {
	seq := r.NextSeq()
	block := send.Len()
	if recv.Len() != block*r.Size() {
		panic("coll: allgather receive buffer must hold Size() blocks")
	}
	l := &ringLoop{
		r: r, send: send, recv: recv, block: block,
		base: allgatherRingTagBase + int(seq%allgatherRingTagBase),
		last: r.Size() - 1, done: done,
	}
	l.ownBlock(send)
}

// ringLoop drives one rank through a ring of Sendrecv steps s in
// [s, last): the ring allgather passes the block it obtained s steps ago to
// its right neighbour, and the pairwise alltoall (pairwise set) sends its
// block for rank me+s while receiving from me-s.
type ringLoop struct {
	r          *mpi.Rank
	send, recv data.Buf
	block      int
	base       int
	s, last    int
	pairwise   bool
	done       func()
	stepFn     func()
}

// ownBlock copies this rank's own block from src into place, then starts
// the ring.
func (l *ringLoop) ownBlock(src data.Buf) {
	hw, b, me := l.r.Node().HW, l.block, l.r.Rank()
	l.stepFn = l.step
	hw.CopyThen(l.r.Proc(), b, hw.Cached(2*b), func() {
		data.Copy(l.recv.Slice(me*b, b), src)
		l.step()
	})
}

// step runs the next Sendrecv, or finishes after the last.
func (l *ringLoop) step() {
	if l.s == l.last {
		l.done()
		return
	}
	s, b, me, size := l.s, l.block, l.r.Rank(), l.r.Size()
	l.s++
	if l.pairwise {
		dst, src := (me+s)%size, (me-s+size)%size
		l.r.SendrecvThen(dst, l.send.Slice(dst*b, b), l.base+s, src, l.recv.Slice(src*b, b), l.base+s, l.stepFn)
		return
	}
	out, in := (me-s+size)%size, (me-s-1+size)%size
	l.r.SendrecvThen((me+1)%size, l.recv.Slice(out*b, b), l.base+s,
		(me-1+size)%size, l.recv.Slice(in*b, b), l.base+s, l.stepFn)
}
