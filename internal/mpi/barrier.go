package mpi

import "bgpcoll/internal/sim"

// barrierState is one barrier's arrival count and one-shot release counter.
// States recycle through the world's free list; the counter is carved
// afresh for every barrier, so Kernel.Reset's epoch stamps police it as
// before.
type barrierState struct {
	seq     int64
	arrived int
	release *sim.Counter
}

// Barrier synchronizes all ranks over the global interrupt network.
func (r *Rank) Barrier() { r.BarrierThen(nop) }

// BarrierThen is the explicit-resume form of Barrier: done runs once all
// ranks have arrived and the interrupt-network latency has elapsed.
//
// The last arrival schedules the release and returns the state to the free
// list at once: the arrived ranks hold only the counter, so done passes
// straight to the wait and no rank allocates a wrapper closure.
func (r *Rank) BarrierThen(done func()) {
	seq := r.NextSeq()
	w := r.w
	st := w.barrier(seq)
	st.arrived++
	c := st.release
	if st.arrived == w.Size() {
		k := w.M.K
		k.HookAt(k.Now()+w.M.Cfg.Params.BarrierLatency, c, 0, 0) // c.Fire, closure-free
		w.releaseBarrier(st)
	}
	r.proc.WaitGEThen(c, 1, done)
}

// barrier returns the state of barrier seq, arming one on the first
// arrival. Every rank that arrived at a live barrier waits for the rest, so
// at most one barrier is live at a time and the scan is one comparison.
func (w *World) barrier(seq int64) *barrierState {
	s := w.state()
	for _, st := range s.barriers {
		if st.seq == seq {
			return st
		}
	}
	var st *barrierState
	if n := len(s.barrierFree); n > 0 {
		st = s.barrierFree[n-1]
		s.barrierFree = s.barrierFree[:n-1]
	} else {
		st = new(barrierState)
	}
	*st = barrierState{seq: seq, release: w.M.K.NewCounterf("barrier%d", int32(seq))}
	s.barriers = append(s.barriers, st)
	return st
}

// releaseBarrier moves a fully arrived barrier to the free list, dropping
// its counter handle.
func (w *World) releaseBarrier(st *barrierState) {
	s := w.scratch
	for i, b := range s.barriers {
		if b == st {
			last := len(s.barriers) - 1
			s.barriers[i] = s.barriers[last]
			s.barriers[last] = nil
			s.barriers = s.barriers[:last]
			break
		}
	}
	st.release = nil
	s.barrierFree = append(s.barrierFree, st)
}
