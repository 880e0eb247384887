package coll

import (
	"bgpcoll/internal/cnk"
	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

// Register installs every algorithm in the mpi registries. The facade calls
// it once at startup. Each algorithm registers its one program-form body;
// the mpi layer derives the blocking entry points from it.
func Register() {
	mpi.RegisterProgBcast(mpi.BcastTorusDirectPut, bcastTorusDirectPut)
	mpi.RegisterProgBcast(mpi.BcastTorusShaddr, bcastTorusShaddr)
	mpi.RegisterProgBcast(mpi.BcastTorusFIFO, bcastTorusFIFO)
	mpi.RegisterProgBcast(mpi.BcastTreeSMP, bcastTreeSMP)
	mpi.RegisterProgBcast(mpi.BcastTreeShmem, bcastTreeShmem)
	mpi.RegisterProgBcast(mpi.BcastTreeDMAFIFO, bcastTreeDMAFIFO)
	mpi.RegisterProgBcast(mpi.BcastTreeDMADirect, bcastTreeDMADirect)
	mpi.RegisterProgBcast(mpi.BcastTreeShaddr, bcastTreeShaddr)
	mpi.RegisterProgAllreduce(mpi.AllreduceTorusCurrent, allreduceCurrent)
	mpi.RegisterProgAllreduce(mpi.AllreduceTorusNew, allreduceShaddr)
	mpi.RegisterProgGather(mpi.GatherTorus, gatherTorus)
	mpi.RegisterProgAllgather(mpi.AllgatherTorus, allgatherTorus)
	mpi.RegisterProgAllgather(mpi.AllgatherRing, allgatherRing)
	mpi.RegisterProgReduce(mpi.ReduceTorus, reduceShaddr)
	mpi.RegisterProgScatter(mpi.ScatterTorus, scatterTorus)
	mpi.RegisterProgAlltoall(mpi.AlltoallTorus, alltoallTorus)
}

// windowKey builds the CNK buffer key for mapping a peer's buffer.
func windowKey(peerLRank int, buf data.Buf) cnk.BufferKey {
	return cnk.BufferKey{OwnerLocalRank: peerLRank, Tag: buf.ID()}
}

// quadBcastFootprint is the node cache working set of a quad-mode broadcast:
// all four ranks' message buffers.
func quadBcastFootprint(r *mpi.Rank, n int) bool {
	return r.Node().HW.Cached(r.LocalSize() * n)
}

// installPayload copies the authoritative broadcast payload into a rank's
// buffer at completion (functional bookkeeping; see the package comment).
func installPayload(dst, src data.Buf) {
	if dst.Len() == src.Len() && dst.Len() > 0 {
		data.Copy(dst, src)
	}
}

// sumSpanLens totals a span list's bytes.
func sumSpanLens(spans []hw.Span) int {
	n := 0
	for _, s := range spans {
		n += s.Len
	}
	return n
}
