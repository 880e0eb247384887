package mpi

import "bgpcoll/internal/hw"

// Reset returns a world whose last run completed cleanly to its
// post-NewWorld state without rebuilding the partition: the machine resets
// (kernel clock/queues/arena/pipes, tree op numbering), every rank rewinds
// its collective sequence number, drops its process handle, empties its
// mailbox, and cools its CNK map cache, and the tunables return to the
// automatic defaults. The collectives' per-world scratch (Scratch) keeps
// its recycled states and driver slabs, re-armed by the next call, except
// what RunScratch values drop. A reused world is indistinguishable from a
// fresh one: the determinism stress tests compare their virtual times bit
// for bit.
//
// Reset panics (from sim.Kernel.Reset) if the previous run failed; callers
// pool only cleanly finished worlds and drop the rest.
//
// This file is a sanctioned Reset site for the bgplint worldreuse rule.
func (w *World) Reset() {
	w.M.Reset()
	w.Tunables = DefaultTunables()
	w.endRuns()
	for id := range w.ranks {
		r := &w.ranks[id]
		r.proc = nil
		r.seq = 0
		if r.inbox != nil {
			r.inbox.reset()
		}
		r.cnk.Reset()
	}
}

// Reconfigure rebuilds the world for a new configuration on the same kernel:
// machine.Reconfigure rebuilds the device graph (reusing slab capacity), the
// rank slab is refilled in place, and the job-level state — tunables, any
// materialized mailboxes — returns to its post-NewWorld condition. Growing a
// pooled world this way costs a re-init instead of a rebuild; the result is
// bit-identical, in every kernel-observable way, to NewWorld(cfg) (pinned by
// the bench equivalence tests).
//
// This file is a sanctioned Reset site for the bgplint worldreuse rule;
// Reconfigure is Reset's capacity-aware sibling and lives at the same choke
// point.
func (w *World) Reconfigure(cfg hw.Config) error {
	if err := w.M.Reconfigure(cfg); err != nil {
		return err
	}
	w.Tunables = DefaultTunables()
	w.endRuns()
	w.buildRanks()
	return nil
}

// reset empties the mailbox for a reused world. A clean run normally matches
// every arrival, but an algorithm may legitimately finish with stray eager
// arrivals it never received; none of them may leak into the next lease.
func (b *mailbox) reset() {
	clear(b.arrived)
	clear(b.posted)
}
