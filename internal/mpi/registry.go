package mpi

import (
	"fmt"
	"sort"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
)

// Well-known collective algorithm names. Implementations live in package
// coll and register under these names; Tunables select among them.
const (
	// Bcast over the collective (tree) network.
	BcastTreeSMP       = "tree.smp"       // SMP mode: main + helper thread
	BcastTreeShmem     = "tree.shmem"     // quad: shared-memory segment (latency)
	BcastTreeDMAFIFO   = "tree.dmafifo"   // quad: DMA to per-core memory FIFOs
	BcastTreeDMADirect = "tree.dmadirect" // quad: DMA direct put to peers
	BcastTreeShaddr    = "tree.shaddr"    // quad: shared address + core specialization

	// Bcast over the 3D torus.
	BcastTorusDirectPut = "torus.directput" // DMA for network and intra-node
	BcastTorusFIFO      = "torus.fifo"      // concurrent Bcast FIFO staging
	BcastTorusShaddr    = "torus.shaddr"    // shared address + message counters

	// Allreduce over the 3D torus.
	AllreduceTorusCurrent = "allreduce.current" // DMA-based intra-node phases
	AllreduceTorusNew     = "allreduce.shaddr"  // core specialization + windows

	// Extension collectives (the paper's future work).
	GatherTorus    = "gather.torus"
	AllgatherTorus = "allgather.torus"
	AllgatherRing  = "allgather.ring"
	ReduceTorus    = "reduce.torus"
	ScatterTorus   = "scatter.torus"
	AlltoallTorus  = "alltoall.torus"
)

// Every collective is registered once, in explicit-resume (program) form:
// the body is written against the sim *Then operations and calls done when
// the collective completes on this rank. On a goroutine-backed rank the
// operations block, so calling the body with a no-op continuation IS the
// blocking algorithm; on an inline program rank the body parks and the
// kernel resumes it. Either way done runs exactly once, at the same virtual
// time, so one transcription serves both execution modes.

// ProgBcastFn broadcasts buf (the full message buffer on every rank; the
// root's holds the payload) from global rank root.
type ProgBcastFn func(r *Rank, buf data.Buf, root int, done func())

// ProgFn is a collective over every rank's send and recv buffers: allreduce
// (float64 sum into every recv), allgather (every send into every recv, in
// rank order) and alltoall (rank i's j-th send block lands in rank j's i-th
// recv block).
type ProgFn func(r *Rank, send, recv data.Buf, done func())

// ProgRootedFn is a collective with a root rank: gather (every send into the
// root's recv, rank i's data at offset i*send.Len()), reduce (float64 sum
// into the root's recv) and scatter (the root's send block i into rank i's
// recv).
type ProgRootedFn func(r *Rank, send, recv data.Buf, root int, done func())

// registry maps algorithm names to one operation's program-form bodies.
// gen counts registrations, starting at 1, so a resolved lookup can tell
// that the name it cached may now map to another body.
type registry[F any] struct {
	op  string
	fns map[string]F
	gen uint64
}

func newRegistry[F any](op string) *registry[F] {
	return &registry[F]{op: op, fns: map[string]F{}, gen: 1}
}

func (g *registry[F]) register(name string, fn F) {
	g.fns[name] = fn
	g.gen++
}

// names lists the registered algorithm names in sorted order.
func (g *registry[F]) names() []string {
	names := make([]string, 0, len(g.fns))
	for n := range g.fns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (g *registry[F]) lookup(name string) F {
	fn, ok := g.fns[name]
	if !ok {
		panic(fmt.Sprintf("mpi: no %s algorithm %q registered (have %v)", g.op, name, g.names()))
	}
	return fn
}

// resolved is one world's last lookup in a registry: the per-call dispatch
// of BcastThen and AllreduceSumThen compares a name and a generation
// instead of hashing the name into the registry map on every rank's call.
// The zero value (gen 0) resolves on first use.
type resolved[F any] struct {
	name string
	gen  uint64
	fn   F
}

// get returns name's body in g, looking it up again only when the name or
// the registry changed since the last call.
//
//bgplint:hot
func (c *resolved[F]) get(g *registry[F], name string) F {
	if c.gen != g.gen || c.name != name {
		c.fn, c.name, c.gen = g.lookup(name), name, g.gen
	}
	return c.fn
}

var (
	bcastAlgos     = newRegistry[ProgBcastFn]("bcast")
	allreduceAlgos = newRegistry[ProgFn]("allreduce")
	gatherAlgos    = newRegistry[ProgRootedFn]("gather")
	allgatherAlgos = newRegistry[ProgFn]("allgather")
	reduceAlgos    = newRegistry[ProgRootedFn]("reduce")
	scatterAlgos   = newRegistry[ProgRootedFn]("scatter")
	alltoallAlgos  = newRegistry[ProgFn]("alltoall")
)

// RegisterProgBcast installs a broadcast under name.
func RegisterProgBcast(name string, fn ProgBcastFn) { bcastAlgos.register(name, fn) }

// RegisterProgAllreduce installs a float64-sum allreduce under name.
func RegisterProgAllreduce(name string, fn ProgFn) { allreduceAlgos.register(name, fn) }

// RegisterProgGather installs a gather under name.
func RegisterProgGather(name string, fn ProgRootedFn) { gatherAlgos.register(name, fn) }

// RegisterProgAllgather installs an allgather under name.
func RegisterProgAllgather(name string, fn ProgFn) { allgatherAlgos.register(name, fn) }

// RegisterProgReduce installs a float64-sum reduce under name.
func RegisterProgReduce(name string, fn ProgRootedFn) { reduceAlgos.register(name, fn) }

// RegisterProgScatter installs a scatter under name.
func RegisterProgScatter(name string, fn ProgRootedFn) { scatterAlgos.register(name, fn) }

// RegisterProgAlltoall installs an alltoall under name.
func RegisterProgAlltoall(name string, fn ProgFn) { alltoallAlgos.register(name, fn) }

// BcastAlgorithms lists the registered broadcast algorithm names.
func BcastAlgorithms() []string { return bcastAlgos.names() }

// Bcast broadcasts buf from the given root using the configured or
// automatically selected algorithm.
func (r *Rank) Bcast(buf data.Buf, root int) { r.BcastThen(buf, root, nop) }

// BcastThen is the explicit-resume form of Bcast: done runs when the
// collective completes on this rank.
func (r *Rank) BcastThen(buf data.Buf, root int, done func()) {
	r.checkRoot("bcast", root)
	name := r.w.Tunables.Bcast
	if name == "" {
		name = r.autoBcast(buf.Len())
	}
	r.w.state().bcast.get(bcastAlgos, name)(r, buf, root, done)
}

// checkRoot rejects a rooted collective's root outside [0, Size()), the
// MPI_ERR_ROOT check: the collective would otherwise wait for a rank that
// does not exist, and the run would end in a deadlock report that names
// the wrong fault.
func (r *Rank) checkRoot(op string, root int) {
	if root < 0 || root >= r.Size() {
		panic(fmt.Sprintf("mpi: %s root %d outside [0, %d)", op, root, r.Size()))
	}
}

// autoBcast mirrors the production protocol selection: the collective
// network serves short and medium messages, the torus serves large ones; in
// quad mode the shared-memory tree algorithm serves the shortest messages
// and the shared-address algorithms the rest (the paper's best performers).
func (r *Rank) autoBcast(n int) string {
	t := r.w.Tunables
	if r.w.M.Cfg.Mode == hw.SMP {
		if n <= t.TreeCrossover {
			return BcastTreeSMP
		}
		return BcastTorusDirectPut
	}
	switch {
	case n <= t.ShortBcast:
		return BcastTreeShmem
	case n <= t.TreeCrossover:
		return BcastTreeShaddr
	default:
		return BcastTorusShaddr
	}
}

// AllreduceSum performs a float64 sum allreduce of send into recv.
func (r *Rank) AllreduceSum(send, recv data.Buf) { r.AllreduceSumThen(send, recv, nop) }

// AllreduceSumThen is the explicit-resume form of AllreduceSum.
func (r *Rank) AllreduceSumThen(send, recv data.Buf, done func()) {
	if send.Len() != recv.Len() {
		panic("mpi: allreduce buffer length mismatch")
	}
	if send.Len()%data.Float64Len != 0 {
		panic("mpi: allreduce payload is not whole float64 elements")
	}
	r.w.state().allreduce.get(allreduceAlgos, r.allreduceName())(r, send, recv, done)
}

// allreduceName resolves the configured or default allreduce algorithm.
func (r *Rank) allreduceName() string {
	name := r.w.Tunables.Allreduce
	if name == "" {
		name = AllreduceTorusNew
		if r.w.M.Cfg.Mode == hw.SMP {
			name = AllreduceTorusCurrent
		}
	}
	return name
}

// Gather gathers each rank's send into the root's recv.
func (r *Rank) Gather(send, recv data.Buf, root int) { r.GatherThen(send, recv, root, nop) }

// GatherThen is the explicit-resume form of Gather.
func (r *Rank) GatherThen(send, recv data.Buf, root int, done func()) {
	r.checkRoot("gather", root)
	name := r.w.Tunables.Gather
	if name == "" {
		name = GatherTorus
	}
	gatherAlgos.lookup(name)(r, send, recv, root, done)
}

// Allgather gathers every rank's send into every rank's recv.
func (r *Rank) Allgather(send, recv data.Buf) { r.AllgatherThen(send, recv, nop) }

// AllgatherThen is the explicit-resume form of Allgather.
func (r *Rank) AllgatherThen(send, recv data.Buf, done func()) {
	name := r.w.Tunables.Allgather
	if name == "" {
		name = AllgatherTorus
	}
	allgatherAlgos.lookup(name)(r, send, recv, done)
}

// ReduceSum performs a float64 sum reduction of send into the root's recv.
func (r *Rank) ReduceSum(send, recv data.Buf, root int) { r.ReduceSumThen(send, recv, root, nop) }

// ReduceSumThen is the explicit-resume form of ReduceSum.
func (r *Rank) ReduceSumThen(send, recv data.Buf, root int, done func()) {
	r.checkRoot("reduce", root)
	if send.Len()%data.Float64Len != 0 {
		panic("mpi: reduce payload is not whole float64 elements")
	}
	reduceAlgos.lookup(ReduceTorus)(r, send, recv, root, done)
}

// Scatter distributes the root's send buffer block-wise into every rank's
// recv buffer.
func (r *Rank) Scatter(send, recv data.Buf, root int) { r.ScatterThen(send, recv, root, nop) }

// ScatterThen is the explicit-resume form of Scatter.
func (r *Rank) ScatterThen(send, recv data.Buf, root int, done func()) {
	r.checkRoot("scatter", root)
	scatterAlgos.lookup(ScatterTorus)(r, send, recv, root, done)
}

// Alltoall exchanges equal-size blocks among all ranks.
func (r *Rank) Alltoall(send, recv data.Buf) { r.AlltoallThen(send, recv, nop) }

// AlltoallThen is the explicit-resume form of Alltoall.
func (r *Rank) AlltoallThen(send, recv data.Buf, done func()) {
	alltoallAlgos.lookup(AlltoallTorus)(r, send, recv, done)
}
