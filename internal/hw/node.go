package hw

import (
	"fmt"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/sim"
)

// Mode is the BG/P node operating mode: how many MPI processes run per node.
type Mode int

// Operating modes (paper §III).
const (
	SMP  Mode = 1 // one process (with a helper communication thread)
	Dual Mode = 2 // two processes
	Quad Mode = 4 // four processes, the mode this paper optimizes
)

func (m Mode) String() string {
	switch m {
	case SMP:
		return "SMP"
	case Dual:
		return "DUAL"
	case Quad:
		return "QUAD"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ProcsPerNode returns the MPI process count per node in this mode.
func (m Mode) ProcsPerNode() int { return int(m) }

// CoresPerNode is fixed on BG/P: four PowerPC 450 cores per node.
const CoresPerNode = 4

// Node models one BG/P compute node's shared resources: the memory bus and
// the cost model for core-driven copies and reductions. Network-side devices
// (DMA engine, torus router, tree interface) attach to the node from their
// own packages.
type Node struct {
	ID    int
	Coord geometry.Coord

	// P points at the partition's one shared, immutable parameter set
	// (machine.Machine owns it). Sharing it instead of embedding a copy is
	// the node-level flyweight: Params is ~280 bytes, and a rack-scale world
	// has hundreds of thousands of nodes.
	P *Params

	// Bus serializes DRAM traffic from all four cores and the DMA engine.
	// It points at the embedded bus below; the indirection survives from the
	// pointer-per-device era so call sites read n.Bus unchanged.
	Bus *sim.Pipe

	bus sim.Pipe
}

// NewNode creates a node with its memory bus on kernel k. Standalone
// construction (tests, single-node studies): the node owns a private copy of
// p and its bus pipe is registered immediately. Partitions use InitNode over
// a dense slab instead.
func NewNode(k *sim.Kernel, id int, c geometry.Coord, p Params) *Node {
	n := &Node{}
	prm := p
	InitNode(n, k, id, c, &prm)
	k.AdoptPipe(&n.bus)
	return n
}

// InitNode initializes a caller-allocated node in place: the hot
// world-construction path. It allocates nothing — the bus pipe is embedded,
// the parameter set is shared — and touches only n, so disjoint nodes may be
// initialized concurrently. The caller registers &n.bus (via Node.Bus) with
// Kernel.AdoptPipe afterwards, serially.
//
//bgplint:hot
func InitNode(n *Node, k *sim.Kernel, id int, c geometry.Coord, p *Params) {
	n.ID = id
	n.Coord = c
	n.P = p
	k.InitPipe(&n.bus, "node.bus", int32(id), p.BusBps, 0)
	n.Bus = &n.bus
}

// Cached reports whether a working set of the given size fits the node's
// shared cache. Collective algorithms pass their total buffer footprint
// (e.g. four application buffers for a quad-mode shared-address broadcast);
// when it exceeds the 8 MB cache, copies run at DRAM rate — the effect behind
// the large-message dip in the paper's Fig. 10.
func (n *Node) Cached(footprint int) bool { return footprint <= n.P.CacheBytes }

// copyRate returns the single-core copy rate for the cache state.
func (n *Node) copyRate(cached bool) float64 {
	if cached {
		return n.P.CopyCachedBps
	}
	return n.P.CopyDRAMBps
}

// reduceRate returns the single-core streaming reduction rate.
func (n *Node) reduceRate(cached bool) float64 {
	if cached {
		return n.P.ReduceBps
	}
	return n.P.ReduceDRAMBps
}

// CopyTime returns the core-only cost of copying n bytes without executing
// it; used by analytic paths and tests.
func (n *Node) CopyTime(bytes int, cached bool) sim.Time {
	return sim.TransferTime(bytes, n.copyRate(cached))
}

// ReduceTime returns the core-only cost of reducing n bytes.
func (n *Node) ReduceTime(bytes int, cached bool) sim.Time {
	return sim.TransferTime(bytes, n.reduceRate(cached))
}

// CopyThen occupies p for the time one core needs to copy bytes, also
// charging the node's memory bus, then continues with cont.
func (n *Node) CopyThen(p *sim.Proc, bytes int, cached bool, cont func()) {
	n.coreMemOpThen(p, bytes, n.copyRate(cached), cont)
}

// ReduceThen occupies p for the time one core needs to stream-sum bytes of
// doubles from another buffer into its own, also charging the memory bus,
// then continues with cont.
func (n *Node) ReduceThen(p *sim.Proc, bytes int, cached bool, cont func()) {
	n.coreMemOpThen(p, bytes, n.reduceRate(cached), cont)
}

// coreMemOpThen models a core-driven streaming memory operation: the core is
// busy for bytes/rate, and the same bytes occupy the shared bus; the
// operation finishes at whichever is later. A non-positive size continues
// immediately without touching the bus.
func (n *Node) coreMemOpThen(p *sim.Proc, bytes int, rate float64, cont func()) {
	if bytes <= 0 {
		cont()
		return
	}
	p.BusyThen(n.Bus, bytes, sim.TransferTime(bytes, rate), cont)
}

// PollThen advances p by the shared-memory poll/notify latency — the time
// for a flag or counter update by one core to become visible to another —
// then continues with cont.
func (n *Node) PollThen(p *sim.Proc, cont func()) { p.SleepThen(n.P.PollLatency, cont) }

// TableCopy appends CopyThen's work to a shared step table: the same bus
// reservation and core occupation, on the bus of the process that runs the
// table (its sim.Binding), executed while the process stays parked.
func (n *Node) TableCopy(t *sim.Table, bytes int, cached bool) {
	if bytes <= 0 {
		return
	}
	t.Busy(bytes, sim.TransferTime(bytes, n.copyRate(cached)))
}

// TablePoll appends PollThen's latency to a shared step table.
func (n *Node) TablePoll(t *sim.Table) { t.Sleep(n.P.PollLatency) }
