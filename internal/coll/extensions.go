package coll

import (
	"bgpcoll/internal/data"
	"bgpcoll/internal/mpi"
)

// Extension collectives beyond the paper's evaluation, built from the same
// substrates (the paper's future work, §VII): Reduce runs the shared-address
// allreduce without the broadcast-down phase (reduceShaddr in allreduce.go);
// Scatter and Alltoall use the point-to-point layer.

const (
	scatterTagBase  = 2 << 20
	alltoallTagBase = 3 << 20
)

// scatterTorus implements MPI_Scatter: the root streams each rank's block
// with nonblocking sends so the transfers pipeline; receivers simply post.
func scatterTorus(r *mpi.Rank, send, recv data.Buf, root int, done func()) {
	seq := r.NextSeq()
	tag := scatterTagBase + int(seq%scatterTagBase)
	block := recv.Len()
	if r.Rank() != root {
		r.RecvThen(root, recv, tag, done)
		return
	}
	if send.Len() != block*r.Size() {
		panic("coll: scatter send buffer must hold Size() blocks")
	}
	fanAtRoot(r, recv, send.Slice(root*block, block),
		func(dst int) *mpi.Request { return r.Isend(dst, send.Slice(dst*block, block), tag) },
		done)
}

// alltoallTorus implements MPI_Alltoall with the pairwise-exchange ring: in
// step s every rank sends its block for rank (me+s) while receiving from
// (me-s). Sendrecv keeps each step deadlock-free regardless of protocol.
func alltoallTorus(r *mpi.Rank, send, recv data.Buf, done func()) {
	seq := r.NextSeq()
	size := r.Size()
	if send.Len()%size != 0 || recv.Len() != send.Len() {
		panic("coll: alltoall buffers must hold Size() equal blocks")
	}
	block := send.Len() / size
	l := &ringLoop{
		r: r, send: send, recv: recv, block: block,
		base: alltoallTagBase + int(seq%alltoallTagBase),
		s:    1, last: size, pairwise: true, done: done,
	}
	l.ownBlock(send.Slice(r.Rank()*block, block))
}
