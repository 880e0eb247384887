package mpi

import (
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

	// scratch holds the state collectives keep on the world across calls
	// (see worldScratch). Nil until first use: NewWorld allocates nothing
	// for it.
	scratch *worldScratch
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

// Run executes fn on every rank as a simulated process and drives the
// simulation until all ranks return. It returns the virtual time consumed.
func (w *World) Run(fn func(r *Rank)) (sim.Time, error) { return w.run(fn, false) }

// RunProgram executes fn on every rank as a program process: the body must be
// written in explicit-resume style (BarrierThen, BcastThen, ...) and is done
// when its last continuation returns without arming another resume. In the
// kernel's default mode no rank gets a goroutine; in noProgram reference mode
// the identical bodies run on goroutine processes, where every *Then
// operation blocks — either way the schedule is the same one Run produces
// from the blocking transcription.
func (w *World) RunProgram(fn func(r *Rank)) (sim.Time, error) { return w.run(fn, true) }

// run spawns every rank with the world's one bound start function, which
// finds the rank by its process id and runs the body the world holds for
// this run, so a run allocates no per-rank closure.
func (w *World) run(fn func(r *Rank), program bool) (sim.Time, error) {
	s := w.state()
	if s.start == nil {
		s.start = w.start
	}
	s.body = fn
	k := w.M.K
	for id := range w.ranks {
		if program {
			w.ranks[id].proc = k.SpawnProgramIdx("rank%d", int32(id), s.start)
		} else {
			w.ranks[id].proc = k.SpawnIdx("rank%d", int32(id), s.start)
		}
	}
	err := k.Run()
	s.body = nil // the body's captures must not outlive the run
	return k.Now(), err
}

// start is every rank process's entry: run the world's current body on the
// rank the process was spawned for.
func (w *World) start(p *sim.Proc) { w.scratch.body(&w.ranks[p.ID()]) }
