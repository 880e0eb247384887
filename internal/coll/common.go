package coll

import (
	"bgpcoll/internal/cnk"
	"bgpcoll/internal/data"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
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

// sumLens totals a delivery log's span lengths.
func sumLens(lens []int32) int {
	n := 0
	for _, l := range lens {
		n += int(l)
	}
	return n
}

// rearm re-arms c under the name fmt.Sprintf(format, ops...), when it is a
// handle the caller carved earlier in the run, or carves a fresh counter
// when c is nil (a recycled state's first call of the run). The caller
// drops its handles at every Kernel.Reset (sim.Counter.Rearm).
func rearm(k *sim.Kernel, c *sim.Counter, format string, ops ...int32) *sim.Counter {
	if c == nil {
		return k.NewCounterf(format, ops...)
	}
	c.Rearm(format, ops...)
	return c
}

// recycled is the per-call states of one collective family on a world
// (DESIGN.md §17): live holds the states of calls in flight, found by
// sequence number, and free the released ones awaiting re-arm. In-flight
// calls are few — a rank runs ahead into later calls only while slower
// ranks finish earlier ones, and loops synchronize — so a linear scan
// finds a state.
type recycled[S any] struct {
	live []*S
	seqs []int64 // seqs[i] is the call live[i] serves
	free []*S
}

// find returns the live state of call seq, or nil.
func (rs *recycled[S]) find(seq int64) *S {
	for i, s := range rs.seqs {
		if s == seq {
			return rs.live[i]
		}
	}
	return nil
}

// take puts a released state, or a new zero one, live for call seq; the
// caller arms it.
func (rs *recycled[S]) take(seq int64) *S {
	var s *S
	if n := len(rs.free); n > 0 {
		s = rs.free[n-1]
		rs.free[n-1] = nil
		rs.free = rs.free[:n-1]
	} else {
		s = new(S)
	}
	rs.live = append(rs.live, s)
	rs.seqs = append(rs.seqs, seq)
	return s
}

// put moves a live state to the free list.
func (rs *recycled[S]) put(s *S) {
	for i, l := range rs.live {
		if l == s {
			last := len(rs.live) - 1
			rs.live[i], rs.seqs[i] = rs.live[last], rs.seqs[last]
			rs.live[last] = nil
			rs.live, rs.seqs = rs.live[:last], rs.seqs[:last]
			break
		}
	}
	rs.free = append(rs.free, s)
}

// inFlight refuses a steady-state capture while any call is live: its
// state is mid-schedule. Idle capacity hashes nothing.
func (rs *recycled[S]) inFlight(f *sim.FP, what string) {
	if len(rs.live) > 0 {
		f.Refuse(what + " in flight")
	}
}
