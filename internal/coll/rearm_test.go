package coll

import (
	"fmt"
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// highWaterCase is one algorithm of a recycled collective family: the mode
// it runs in and how a world selects it.
type highWaterCase struct {
	name string
	mode hw.Mode
	pick func(w *mpi.World)
}

func highWaterCases() []highWaterCase {
	var cases []highWaterCase
	bcast := func(algo string, mode hw.Mode) highWaterCase {
		return highWaterCase{algo + "/" + mode.String(), mode, func(w *mpi.World) { w.Tunables.Bcast = algo }}
	}
	for _, algo := range treeAlgosFor(hw.Quad) {
		cases = append(cases, bcast(algo, hw.Quad))
	}
	cases = append(cases, bcast(mpi.BcastTreeSMP, hw.SMP))
	for _, algo := range []string{mpi.BcastTorusDirectPut, mpi.BcastTorusShaddr, mpi.BcastTorusFIFO} {
		cases = append(cases, bcast(algo, hw.Quad))
	}
	for _, algo := range []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent} {
		cases = append(cases, highWaterCase{algo + "/" + hw.Quad.String(), hw.Quad, func(w *mpi.World) { w.Tunables.Allreduce = algo }})
	}
	return cases
}

// runFig5 runs the Fig. 5 loop shape on every rank of w — calls times a
// barrier, then one collective — and returns the run's counter high-water.
func runFig5(t *testing.T, w *mpi.World, calls int) int {
	t.Helper()
	const bytes = 96 << 10 // several chunks on every network
	if _, err := w.Run(func(r *mpi.Rank) {
		a, b := r.NewBuf(bytes), r.NewBuf(bytes)
		for i := 0; i < calls; i++ {
			r.Barrier()
			if w.Tunables.Allreduce != "" {
				r.AllreduceSum(a, b)
			} else {
				r.Bcast(a, 0)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return w.M.K.Counters()
}

// TestCounterHighWaterIsOneCall: every recycled per-call state re-arms the
// counters it carved, so a run of eight barrier-separated calls holds the
// counters of one call, not eight — only the barriers' one-shot release
// counters, one per barrier, grow with the call count. Each run follows a
// Reset of the world the previous run used, so the tree scratch's handle
// drop (treeScratch.EndRun) is exercised too.
func TestCounterHighWaterIsOneCall(t *testing.T) {
	for _, geom := range [][3]int{{2, 2, 2}, {4, 4, 2}} {
		for _, c := range highWaterCases() {
			name := fmt.Sprintf("%dx%dx%d/%s", geom[0], geom[1], geom[2], c.name)
			cfg := testConfig(geom[0], geom[1], geom[2], c.mode)
			cfg.Functional = false
			w, err := mpi.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.pick(w)
			one := runFig5(t, w, 1)
			w.Reset()
			c.pick(w)
			eight := runFig5(t, w, 8)
			if eight-8 != one-1 {
				t.Errorf("%s: %d counters after 8 calls, %d after 1 (less one barrier counter per call: %d against %d)",
					name, eight, one, eight-8, one-1)
			}
		}
	}
}

// TestTreeStateRecarvesAfterReset: the tree scratch outlives runs, so at
// the Reset it must drop every counter handle its recycled states and SMP
// slots hold, and their first call of the next run carves afresh. A kept
// handle would point into a slot the next run re-carves for another owner
// (here the first barrier's release counter), stamped with the new epoch,
// and re-arming it would alias that owner's counter instead of panicking.
func TestTreeStateRecarvesAfterReset(t *testing.T) {
	for _, c := range []highWaterCase{
		{mpi.BcastTreeShaddr, hw.Quad, nil},
		{mpi.BcastTreeDMADirect, hw.Quad, nil},
		{mpi.BcastTreeSMP, hw.SMP, nil},
	} {
		cfg := testConfig(2, 2, 1, c.mode)
		fresh := func() *mpi.World {
			w, err := mpi.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			w.Tunables.Bcast = c.name
			return w
		}
		w := fresh()
		runFig5(t, w, 2)
		w.Reset()
		sc := w.Scratch(treeScratchKey, newTreeScratch).(*treeScratch)
		if len(sc.states.free) == 0 {
			t.Fatalf("%s: no recycled tree state after a run", c.name)
		}
		for _, st := range sc.states.free {
			if holdsCounter(st.sw) || holdsCounter(st.fill) || holdsCounter(st.peer) {
				t.Fatalf("%s: a recycled state keeps a counter handle across Reset", c.name)
			}
			for _, op := range st.ops[:cap(st.ops)] {
				if op.Delivered() != nil {
					t.Fatalf("%s: a recycled tree op keeps its delivery counter across Reset", c.name)
				}
			}
		}
		for _, d := range sc.smp {
			if d.helperDone != nil {
				t.Fatalf("%s: an SMP slot keeps its helper counter across Reset", c.name)
			}
		}
		w.Tunables.Bcast = c.name
		got, want := runFig5(t, w, 2), runFig5(t, fresh(), 2)
		if got != want {
			t.Errorf("%s: reused world carved %d counters, fresh world %d", c.name, got, want)
		}
	}
}

// holdsCounter reports whether a counter slice holds a handle, in its spare
// capacity too.
func holdsCounter(s []*sim.Counter) bool {
	for _, c := range s[:cap(s)] {
		if c != nil {
			return true
		}
	}
	return false
}

// TestTreeStateHoldsNoPayload: a released tree broadcast state holds no
// caller's buffer, and only tree.shaddr, which maps the reception and
// injector buffers through process windows, sizes the window keys at all.
func TestTreeStateHoldsNoPayload(t *testing.T) {
	for _, algo := range treeAlgosFor(hw.Quad) {
		w, err := mpi.NewWorld(testConfig(2, 2, 1, hw.Quad))
		if err != nil {
			t.Fatal(err)
		}
		w.Tunables.Bcast = algo
		runFig5(t, w, 2)
		sc := w.Scratch(treeScratchKey, newTreeScratch).(*treeScratch)
		if len(sc.states.free) == 0 {
			t.Fatalf("%s: no recycled tree state after a run", algo)
		}
		for _, st := range sc.states.free {
			if st.src.Len() != 0 {
				t.Errorf("%s: a released state keeps the root's payload", algo)
			}
			for _, keys := range [][]data.Buf{st.rxBuf, st.r0Buf} {
				if algo != mpi.BcastTreeShaddr && cap(keys) != 0 {
					t.Errorf("%s: the state sizes %d window keys it never reads", algo, cap(keys))
				}
				for _, b := range keys[:cap(keys)] {
					if b.Len() != 0 {
						t.Errorf("%s: a released state keeps a rank's buffer as a window key", algo)
					}
				}
			}
		}
	}
}
