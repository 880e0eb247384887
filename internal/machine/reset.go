package machine

import (
	"fmt"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/torus"
	"bgpcoll/internal/tree"
)

// Reset returns a partition whose last run completed cleanly to its
// post-New state without rebuilding anything: the kernel rewinds its clock,
// queues, arena, and every pipe (torus links, tree channel, node buses, DMA
// engines all reserve through kernel-registered pipes), and the tree network
// restarts its operation numbering so a reused partition names events
// exactly like a fresh one. The node/network object graph — 8192 hw.Nodes,
// DMA engines, lazily created torus links — is kept as is; none of it holds
// per-run state outside the kernel.
//
// Reset panics (from sim.Kernel.Reset) if the previous run failed: a
// deadlocked kernel still has parked processes that cannot be reclaimed.
// Callers pool only cleanly finished machines and drop the rest.
//
// This file is a sanctioned Reset site for the bgplint worldreuse rule:
// reset must stay a single choke point per layer so handles cannot silently
// survive a lease boundary.
func (m *Machine) Reset() {
	m.K.Reset()
	m.Tree.Reset()
	m.Trace = nil
}

// Reconfigure rebuilds the partition's device graph for a new configuration
// on the same kernel: the capacity-aware half of world reuse. The kernel
// keeps its accumulated allocations (arena slabs, queue capacity, parked
// pool workers) and the node slabs keep their backing arrays when the new
// geometry fits, so growing a pooled world costs a re-init, not a rebuild.
// The old generation's pipes are released and the torus/tree networks are
// built fresh — their identity is per-configuration.
//
// Reconfigure panics (from sim.Kernel.Reset) if the last run failed, exactly
// like Reset.
//
// A reconfigured machine is bit-identical, in every kernel-observable way,
// to a freshly built one: the bench equivalence tests pin grown-vs-fresh
// virtual times exactly.
func (m *Machine) Reconfigure(cfg hw.Config) error {
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	m.K.Reset()
	m.K.ReleasePipes()
	m.Cfg, m.Geom, m.prm = cfg, cfg.Torus, cfg.Params
	m.Torus = torus.New(m.K, cfg.Torus, cfg.Params)
	m.Tree = tree.New(m.K, cfg.Torus, cfg.Params)
	m.buildNodes()
	m.Trace = nil
	return nil
}
