package coll

import (
	"testing"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
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
