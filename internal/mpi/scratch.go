package mpi

import "bgpcoll/internal/sim"

// Per-world scratch: state a collective package keeps on a world across
// calls — recycled per-call state, per-rank driver slabs — so that a repeat
// collective on a warmed world allocates nothing. The world owns one slot
// per key and never looks inside; Reset and Reconfigure leave the slots
// alone, so their capacity survives pooling and growth, unless a value
// implements RunScratch. The same lazily allocated struct holds mpi's own
// per-world state (worldScratch).

// ScratchKey names one owner's scratch value on every world. Declare one
// package-level key per owner; keys compare by identity.
type ScratchKey struct{ owner string }

// NewScratchKey returns a fresh key; owner only documents who holds it.
func NewScratchKey(owner string) *ScratchKey { return &ScratchKey{owner: owner} }

// RunScratch is implemented by a scratch value whose capacity or sim
// handles should not outlive a run: Reset and Reconfigure call EndRun, so a
// world idle in a pool does not retain it. Use it for state sized by what
// the run's calls needed (message-sized logs, per-rank slabs of a rarely
// used family), which a pooled world would otherwise hold between leases,
// and to drop counter handles a value re-arms from call to call.
type RunScratch interface{ EndRun() }

// endRuns calls EndRun on every scratch value that implements RunScratch.
func (w *World) endRuns() {
	if s := w.scratch; s != nil {
		for _, v := range s.vals {
			if r, ok := v.(RunScratch); ok {
				r.EndRun()
			}
		}
	}
}

// worldScratch is the per-world state allocated on a world's first use of
// any of it, so NewWorld allocates none of it and World keeps its size
// class: the collective packages' scratch slots (Scratch), the barrier
// states (barrier.go), the resolved algorithm dispatch (registry.go), and
// the ranks' shared process entry (Run, RunProgram).
type worldScratch struct {
	// keys and vals are the scratch slots in first-use order: a handful of
	// owners at most, so a linear scan beats any map.
	keys []*ScratchKey
	vals []any

	barriers    []*barrierState // some rank has not arrived yet
	barrierFree []*barrierState // released, awaiting the next barrier

	bcast     resolved[ProgBcastFn]
	allreduce resolved[ProgFn]

	// body is the running Run or RunProgram body, nil between runs, and
	// start the world's bound World.start, every rank process's entry.
	body  func(r *Rank)
	start func(*sim.Proc)
}

// state returns w's scratch, allocating it on first use.
func (w *World) state() *worldScratch {
	s := w.scratch
	if s == nil {
		s = &worldScratch{}
		w.scratch = s
	}
	return s
}

// Scratch returns the value w holds under key, creating it with create on
// first use. A value must not let a sim handle it kept from an earlier run
// be used again: handles are re-carved on every run. Reset's epoch stamps
// make a stale one panic only while its slot is not re-carved; once another
// owner has carved it, the stale handle aliases that owner's counter, so a
// value that keeps handles drops them in EndRun (RunScratch). A value that
// implements sim.Hasher joins
// the world's steady-state fingerprint (SteadyState).
//
// Scratch is not safe for concurrent use. Call it from the goroutine that
// drives the world, or from rank code, whose ranks run one at a time.
func (w *World) Scratch(key *ScratchKey, create func() any) any {
	s := w.state()
	for i, k := range s.keys {
		if k == key {
			return s.vals[i]
		}
	}
	v := create()
	s.keys = append(s.keys, key)
	s.vals = append(s.vals, v)
	return v
}
