package mpi

// Steady-state fingerprinting of the MPI layer (see internal/sim/steady.go
// for the mechanism and the induction argument). The kernel walk covers
// everything schedulable; this walk covers the layer state above it that can
// influence future execution: live barriers (which refuse), fingerprintable
// scratch values (a collective in flight refuses through its scratch),
// per-rank sequence numbers, point-to-point mailboxes and process-window
// (CNK) residue. Everything time- or sequence-like is normalized so that two
// iterations differing only by the uniform per-iteration shift hash
// identically: virtual times are boundary-relative (sim.FP.Time) and
// collective sequence numbers are relative to rank 0's, which advances by
// the same per-iteration count as every rank's in a steady loop.
//
// Sequence numbers are deliberately NOT shifted by extrapolation: the final
// live iteration keeps running with the numbers its collectives were issued.
// The extrapolated run's observable results are bit-identical to full
// execution, while diagnostic-only values (sequence numbers reached, event
// names) may differ. The fingerprint never hashes those, so the induction
// stays sound.

import "bgpcoll/internal/sim"

// SteadyState canonicalizes the world's residual state into f. A collective
// in flight and pending point-to-point traffic refuse the capture
// (extrapolation then falls back to full execution).
func (w *World) SteadyState(f *sim.FP) {
	var baseSeq int64
	if len(w.ranks) > 0 {
		baseSeq = w.ranks[0].seq
	}

	// Scratch values that carry in-flight state fingerprint it; values that
	// are pure capacity (driver slabs, free lists) hash nothing. A barrier
	// some rank has not reached yet refuses: the measure loops capture at a
	// barrier's release, when none is live.
	if s := w.scratch; s != nil {
		if len(s.barriers) > 0 {
			f.Refuse("barrier half-arrived")
			return
		}
		for _, v := range s.vals {
			if h, ok := v.(sim.Hasher); ok {
				h.SteadyState(f)
				if f.Refused() {
					return
				}
			}
		}
	}

	f.I64(int64(len(w.ranks)))
	for i := range w.ranks {
		r := &w.ranks[i]
		f.I64(r.seq - baseSeq)
		if r.inbox != nil && !r.inbox.idle() {
			f.Refuse("pending point-to-point traffic")
			return
		}
		r.cnk.SteadyState(f)
	}
}

// idle reports whether the mailbox holds no pending traffic. Consumed
// match-key entries keep empty slices in the maps, so emptiness is a per-key
// check, not a map-length check; iteration order is irrelevant to a boolean.
func (b *mailbox) idle() bool {
	for _, as := range b.arrived { //bgplint:allow maporder -- order-independent emptiness check
		if len(as) > 0 {
			return false
		}
	}
	for _, rs := range b.posted { //bgplint:allow maporder -- order-independent emptiness check
		if len(rs) > 0 {
			return false
		}
	}
	return true
}
