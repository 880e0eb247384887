package mpi

import (
	"fmt"

	"bgpcoll/internal/cnk"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
)

// World is one MPI job on a simulated partition.
type World struct {
	M        *machine.Machine
	Tunables Tunables

	// ranks is a dense slab: one Rank value per rank, CNK state embedded,
	// mailbox lazy. Handles are interior pointers (&ranks[id]); the slab is
	// never appended to after build, so they stay valid for the world's
	// lifetime. Reconfigure reuses the backing array when the new job fits.
	ranks []Rank

	ops map[opKey]*opEntry

	// shardOps partitions the shared-op registry by kernel shard on a
	// sharded world: node-scoped entries live in the owning node's shard's
	// map, touched only under that shard's token, so parallel windows never
	// race on one map. World-scoped entries are rejected outright — no
	// single shard could own them (Barrier has a dedicated sharded
	// protocol; see rank.go).
	shardOps []map[opKey]*opEntry

	// scratch holds the state collective packages keep on the world across
	// calls (see Scratch). Nil until first use: NewWorld allocates nothing
	// for it.
	scratch *scratchSet

	// hubBarrier is the hub-side state of the sharded barrier protocol,
	// touched only by hub-shard callbacks during a run.
	hubBarrier struct {
		pending []*sim.Counter
	}
}

// Tunables select collective algorithm implementations, mirroring the
// protocol registries of CCMI. Empty strings mean automatic selection by
// message size and mode.
type Tunables struct {
	Bcast     string
	Allreduce string
	Gather    string
	Allgather string

	// TreeCrossover is the largest Bcast payload routed to the collective
	// network in automatic mode; larger messages use the torus.
	TreeCrossover int

	// ShortBcast is the largest payload using the latency-optimized
	// shared-memory tree algorithm in automatic quad mode.
	ShortBcast int

	// EagerLimit is the largest point-to-point payload sent eagerly
	// through memory FIFOs; larger messages use a rendezvous direct put.
	EagerLimit int

	// TorusColors limits the edge-disjoint routes the torus broadcast
	// uses (1..6; 0 = all six). Exists for the color-count ablation.
	TorusColors int
}

// DefaultTunables returns the automatic-selection thresholds.
func DefaultTunables() Tunables {
	return Tunables{
		TreeCrossover: 256 << 10,
		ShortBcast:    2 << 10,
		EagerLimit:    4 << 10,
	}
}

// NewWorld builds a world over a fresh machine. To record schedule events,
// attach a log afterwards: w.M.Trace = trace.New(n).
func NewWorld(cfg hw.Config) (*World, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	w := &World{
		M:        m,
		Tunables: DefaultTunables(),
		ops:      make(map[opKey]*opEntry),
	}
	if m.Sharded() {
		w.shardOps = make([]map[opKey]*opEntry, m.K.ShardCount())
		for i := range w.shardOps {
			w.shardOps[i] = make(map[opKey]*opEntry)
		}
	}
	w.buildRanks()
	return w, nil
}

// buildRanks (re)fills the rank slab for the machine's current Cfg. Like
// machine.buildNodes, the fill fans out in contiguous blocks: rank id's
// content is a pure function of (id, Cfg), so the parallel fill is
// bit-identical to a serial one.
func (w *World) buildRanks() {
	n := w.M.Cfg.Ranks()
	if cap(w.ranks) < n {
		w.ranks = make([]Rank, n)
	} else {
		if len(w.ranks) > n {
			clear(w.ranks[n:])
		}
		w.ranks = w.ranks[:n]
	}
	machine.ParallelBlocks(n, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			w.initRank(id)
		}
	})
}

// initRank fills rank id's slab slot in place. Hot: one call per rank on the
// construction path, allocation-free — the CNK state is embedded, the
// mailbox stays nil until the first point-to-point message, and the process
// name is synthesized lazily by the kernel (SpawnIdx).
//
//bgplint:hot
func (w *World) initRank(id int) {
	ppn := w.M.Cfg.Mode.ProcsPerNode()
	nodeID := id / ppn
	lrank := id % ppn
	r := &w.ranks[id]
	r.w = w
	r.id = id
	r.nodeID = nodeID
	r.lrank = lrank
	r.node = w.M.Node(nodeID)
	r.proc = nil
	r.inbox = nil
	r.seq = 0
	cnk.Init(&r.cnk, r.node.HW, lrank)
}

// Size returns the rank count.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank id's handle (for inspection; rank code receives its own
// handle through Run).
func (w *World) Rank(id int) *Rank { return &w.ranks[id] }

// Sharded reports whether the world runs on a sharded kernel.
func (w *World) Sharded() bool { return w.M.Sharded() }

// Run executes fn on every rank as a simulated process and drives the
// simulation until all ranks return. It returns the virtual time consumed.
// On a sharded world each rank's process is spawned on its node's shard.
func (w *World) Run(fn func(r *Rank)) (sim.Time, error) {
	for id := range w.ranks {
		r := &w.ranks[id]
		r.proc = r.Shard().SpawnIdx("rank%d", int32(r.id), func(p *sim.Proc) {
			fn(r)
		})
	}
	err := w.M.K.Run()
	return w.M.K.Now(), err
}

// RunProgram executes fn on every rank as a program process: the body must be
// written in explicit-resume style (BarrierThen, BcastThen, ...) and is done
// when its last continuation returns without arming another resume. In the
// kernel's default mode no rank gets a goroutine; in noProgram reference mode
// the identical bodies run on goroutine processes, where every *Then
// operation blocks — either way the schedule is the same one Run produces
// from the blocking transcription.
func (w *World) RunProgram(fn func(r *Rank)) (sim.Time, error) {
	for id := range w.ranks {
		r := &w.ranks[id]
		r.proc = r.Shard().SpawnProgramIdx("rank%d", int32(r.id), func(p *sim.Proc) {
			fn(r)
		})
	}
	err := w.M.K.Run()
	return w.M.K.Now(), err
}

// opKey identifies one collective operation instance at one coordination
// scope: a node (intra-node shared state) or the whole job (scope -1).
type opKey struct {
	scope int
	seq   int64
	kind  string
}

type opEntry struct {
	val  any
	refs int
}

const worldScope = -1

// opsFor returns the registry map owning the given scope: the single map on
// a classic world, the owning node's shard's map on a sharded one.
// World-scoped state is unavailable on a sharded world — no shard could own
// it — so collectives that need it (the torus and allreduce families) are
// single-shard only.
func (w *World) opsFor(scope int) map[opKey]*opEntry {
	if w.shardOps == nil {
		return w.ops
	}
	if scope == worldScope {
		panic("mpi: world-scoped shared state on a sharded world (collective not shard-capable)")
	}
	return w.shardOps[w.M.ShardOf(scope).ID()]
}

// shared returns the operation state for (scope, seq), creating it with
// create on first access. parties is the number of ranks that will acquire
// it; when all have released it, the entry is reclaimed.
func (w *World) shared(scope int, seq int64, kind string, parties int, create func() any) any {
	key := opKey{scope: scope, seq: seq, kind: kind}
	ops := w.opsFor(scope)
	e, ok := ops[key]
	if !ok {
		e = &opEntry{val: create(), refs: parties}
		ops[key] = e
	}
	return e.val
}

// release drops one rank's reference to the operation state.
func (w *World) release(scope int, seq int64, kind string) {
	key := opKey{scope: scope, seq: seq, kind: kind}
	ops := w.opsFor(scope)
	e, ok := ops[key]
	if !ok {
		panic(fmt.Sprintf("mpi: release of unknown op %+v", key))
	}
	e.refs--
	if e.refs == 0 {
		delete(ops, key)
	}
}

// hubBarrierArrive records one node's arrival at the current sharded
// barrier; it runs on the hub shard at the arriving node's last-local-rank
// instant. Barriers are totally ordered in virtual time (no node can arrive
// at barrier k+1 before every node was released from barrier k), so a plain
// count of pending nodes identifies the barrier. The last arrival releases
// every node one interrupt-network latency later — the same instant the
// single-shard protocol's event fires at.
func (w *World) hubBarrierArrive(release *sim.Counter) {
	hb := &w.hubBarrier
	hb.pending = append(hb.pending, release)
	if len(hb.pending) < w.M.Cfg.Nodes() {
		return
	}
	hub := w.M.HubShard()
	at := hub.Now() + w.M.Cfg.Params.BarrierLatency
	for _, c := range hb.pending {
		hub.PostAdd(at, c, 1)
	}
	hb.pending = hb.pending[:0]
}
