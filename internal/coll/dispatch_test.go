package coll

import (
	"testing"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// dispatchedOnce runs one call of a collective on every rank of a fresh
// 2x2x2 partition in mode and returns the kernel entries the run
// dispatched.
func dispatchedOnce(t *testing.T, mode hw.Mode, algo string, allreduce bool, bytes int) int64 {
	t.Helper()
	cfg := testConfig(2, 2, 2, mode)
	cfg.Functional = false
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if allreduce {
		w.Tunables.Allreduce = algo
	} else {
		w.Tunables.Bcast = algo
	}
	if _, err := w.RunProgram(func(r *mpi.Rank) {
		a, b := r.NewBuf(bytes), r.NewBuf(bytes)
		if allreduce {
			r.AllreduceSumThen(a, b, func() {})
		} else {
			r.BcastThen(a, 0, func() {})
		}
	}); err != nil {
		t.Fatal(err)
	}
	return w.M.K.Dispatched()
}

// TestDirectPutPeersWaitOnce: in the direct-put algorithms the DMA puts
// every chunk straight into each peer's application buffer, so a peer
// costs a fixed number of kernel dispatches — one completion add and one
// wake — however many chunks its payload has. The quad partition's count
// minus a reference mode's count, whose master does the same work, is what
// the extra peers cost; it must not grow from a small message to a large
// one. Per-chunk peer bookkeeping (an add or a wake per chunk and peer)
// would grow it by hundreds.
//
// The tree and torus masters do the same work in SMP mode, where there are
// no peers. The allreduce's master distributes results only when it has
// peers, so its reference is dual mode; its two sizes both split into 32
// reduce-chain chunks, so only the deliveries the master distributes grow
// (33 to 96 per node).
func TestDirectPutPeersWaitOnce(t *testing.T) {
	cases := []struct {
		algo         string
		allreduce    bool
		ref          hw.Mode
		small, large int
	}{
		{mpi.BcastTreeDMADirect, false, hw.SMP, 4 << 10, 1 << 20},
		{mpi.BcastTorusDirectPut, false, hw.SMP, 4 << 10, 1 << 20},
		{mpi.AllreduceTorusCurrent, true, hw.Dual, 128 << 10, 384 << 10},
	}
	for _, c := range cases {
		peerCost := func(bytes int) int64 {
			return dispatchedOnce(t, hw.Quad, c.algo, c.allreduce, bytes) - dispatchedOnce(t, c.ref, c.algo, c.allreduce, bytes)
		}
		small, large := peerCost(c.small), peerCost(c.large)
		t.Logf("%s: peers cost %d dispatches at %d B, %d at %d B", c.algo, small, c.small, large, c.large)
		if large > small {
			t.Errorf("%s: peers cost %d dispatches at %d B but %d at %d B: peer-side work grows with the chunk count",
				c.algo, small, c.small, large, c.large)
		}
	}
}

// treeDispatchPins are the kernel entries and the end instant of one
// 1,205,652 B (33-chunk) tree broadcast on a 4x4x4 partition, per
// algorithm, mode and root. The chunk loops may change how they are driven,
// not what they schedule: a faithful change keeps both numbers. A quad or
// dual root 5 is not its node's injector, which enters first and waits for
// the root (waitsForRoot): one wake more than root 0, at the same instant.
var treeDispatchPins = []struct {
	mode       hw.Mode
	algo       string
	root       int
	dispatched int64
	end        sim.Time
}{
	{hw.Quad, mpi.BcastTreeShmem, 0, 25670, 2719447299},
	{hw.Quad, mpi.BcastTreeShmem, 5, 25632, 2719447299},
	{hw.Quad, mpi.BcastTreeDMAFIFO, 0, 23585, 2257657608},
	{hw.Quad, mpi.BcastTreeDMAFIFO, 5, 23553, 2257657608},
	{hw.Quad, mpi.BcastTreeDMADirect, 0, 5025, 2247719109},
	{hw.Quad, mpi.BcastTreeDMADirect, 5, 5026, 2247719109},
	{hw.Quad, mpi.BcastTreeShaddr, 0, 22910, 1517978894},
	{hw.Quad, mpi.BcastTreeShaddr, 5, 22947, 1520978894},
	{hw.Dual, mpi.BcastTreeShaddr, 0, 8157, 1699851869},
	{hw.Dual, mpi.BcastTreeShaddr, 5, 8163, 1702851869},
	{hw.SMP, mpi.BcastTreeSMP, 0, 7969, 1485456446},
	{hw.SMP, mpi.BcastTreeSMP, 5, 7969, 1485456446},
}

// TestTreeDispatchPinned pins treeDispatchPins.
func TestTreeDispatchPinned(t *testing.T) {
	for _, c := range treeDispatchPins {
		cfg := testConfig(4, 4, 4, c.mode)
		cfg.Functional = false
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Tunables.Bcast = c.algo
		end, err := w.RunProgram(func(r *mpi.Rank) {
			r.BcastThen(r.NewBuf(1205652), c.root, func() {})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.M.K.Dispatched(); got != c.dispatched || end != c.end {
			t.Errorf("%v %s root %d: dispatched %d, end %d; want %d, %d", c.mode, c.algo, c.root, got, end, c.dispatched, c.end)
		}
	}
}

// torusDispatchPins are the kernel entries and the end instant of one
// torus collective on a 4x3x2 partition, per algorithm, mode and root: a
// 1,205,652 B broadcast, or a 602,112 B allreduce (root 0). As with the tree
// pins, the schedules may change how they compute their routes, not what
// they schedule.
var torusDispatchPins = []struct {
	mode       hw.Mode
	algo       string
	allreduce  bool
	root       int
	dispatched int64
	end        sim.Time
}{
	{hw.Quad, mpi.BcastTorusShaddr, false, 0, 43565, 594201245},
	{hw.Quad, mpi.BcastTorusShaddr, false, 5, 43347, 594201245},
	{hw.Quad, mpi.BcastTorusFIFO, false, 0, 41428, 1198249232},
	{hw.Quad, mpi.BcastTorusFIFO, false, 5, 41278, 1198249232},
	{hw.Quad, mpi.BcastTorusDirectPut, false, 0, 16038, 1837002484},
	{hw.Quad, mpi.BcastTorusDirectPut, false, 5, 16038, 1837002484},
	{hw.SMP, mpi.BcastTorusDirectPut, false, 0, 15822, 586222212},
	{hw.SMP, mpi.BcastTorusDirectPut, false, 5, 15822, 586222212},
	{hw.Quad, mpi.AllreduceTorusNew, true, 0, 34179, 795160309},
	{hw.Quad, mpi.AllreduceTorusCurrent, true, 0, 27413, 1886166033},
}

// TestTorusDispatchPinned pins torusDispatchPins.
func TestTorusDispatchPinned(t *testing.T) {
	for _, c := range torusDispatchPins {
		cfg := testConfig(4, 3, 2, c.mode)
		cfg.Functional = false
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Tunables.Bcast, w.Tunables.Allreduce = c.algo, c.algo
		end, err := w.RunProgram(func(r *mpi.Rank) {
			if c.allreduce {
				r.AllreduceSumThen(r.NewBuf(602112), r.NewBuf(602112), func() {})
			} else {
				r.BcastThen(r.NewBuf(1205652), c.root, func() {})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.M.K.Dispatched(); got != c.dispatched || end != c.end {
			t.Errorf("%v %s root %d: dispatched %d, end %d; want %d, %d", c.mode, c.algo, c.root, got, end, c.dispatched, c.end)
		}
	}
}
