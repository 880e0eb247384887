// Cell-level experiment decomposition. Every figure of the paper is a grid
// of (series, size) cells, and every cell is one self-contained deterministic
// kernel run whose virtual-time answer depends only on (hw.Config, algorithm,
// payload, iterations, root) — never on the execution vehicle or on what ran
// before it. This file makes that grid a first-class, externally drivable
// unit: the serving layer (internal/serve) canonicalizes a Cell into a cache
// key, answers repeats from its content-addressed store, and runs misses
// through Cell.Run on its worker pool; the in-process figure runners below
// (Fig6..Table1) are now thin wrappers over the same plans.
package bench

import (
	"fmt"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// CellKind selects the collective a cell measures.
type CellKind uint8

const (
	// CellBcast measures the Fig. 5 broadcast micro-benchmark; Arg is the
	// message size in bytes.
	CellBcast CellKind = iota
	// CellAllreduce measures the allreduce micro-benchmark; Arg is the
	// operand length in doubles (the Table I axis).
	CellAllreduce
)

// String names the kind for canonical cache keys and diagnostics.
func (k CellKind) String() string {
	switch k {
	case CellBcast:
		return "bcast"
	case CellAllreduce:
		return "allreduce"
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// Cell is one independently runnable, independently cacheable measurement:
// the micro-benchmark loop for one (partition, algorithm, payload,
// iterations, root) tuple. Two cells with equal fields produce bit-identical
// virtual times forever — the property the serving layer's cache is built
// on. Experiment and Series are labels (which figure/curve the cell belongs
// to); they never influence the measured value.
type Cell struct {
	Experiment string // experiment id ("fig7", "table1"; "adhoc" for free-form requests)
	Series     string // curve label within the experiment
	Cfg        hw.Config
	Kind       CellKind
	Algo       string // "" selects automatically
	Arg        int    // bytes (bcast) or doubles (allreduce)
	Iters      int
	Root       int // broadcast root rank; 0 for allreduce
}

// Bytes returns the payload size in bytes (doubles are 8 bytes each).
func (c Cell) Bytes() int {
	if c.Kind == CellAllreduce {
		return c.Arg * data.Float64Len
	}
	return c.Arg
}

// Run measures the cell under the given execution vehicle. The world comes
// from the pool (worldpool.go), so repeated misses on one partition shape
// pay construction once; the virtual-time result is vehicle-independent.
func (c Cell) Run(mode RunMode) (sim.Time, error) {
	if err := c.checkIters(); err != nil {
		return 0, err // before the lease: a refused cell costs no world
	}
	w, err := leaseWorld(c.Cfg)
	if err != nil {
		return 0, err
	}
	t, err := c.RunOn(w, mode)
	releaseWorld(c.Cfg, w, err)
	return t, err
}

// RunOn measures the cell on w, a fresh or reset world of the cell's
// partition that the caller owns: figS builds its own to attribute
// construction cost, the ablations set tunables on a leased one first, and
// bgpsim keeps its world to report the machine's utilization afterwards.
// The cell's algorithm replaces w's selection for its kind.
func (c Cell) RunOn(w *mpi.World, mode RunMode) (sim.Time, error) {
	if err := c.checkIters(); err != nil {
		return 0, err
	}
	w.M.K.SetNoProgram(mode.Reference)
	switch c.Kind {
	case CellBcast:
		w.Tunables.Bcast = c.Algo
		return runMeasure(w, opBcast, c.Arg, c.Iters, c.Root, mode.NoExtrap)
	case CellAllreduce:
		w.Tunables.Allreduce = c.Algo
		return runMeasure(w, opAllreduce, c.Bytes(), c.Iters, 0, mode.NoExtrap)
	}
	return 0, fmt.Errorf("bench: unknown cell kind %d", c.Kind)
}

// checkIters refuses a cell that times no iteration: the measure loop
// averages over Iters, so 0 would divide by zero and a negative count would
// never end.
func (c Cell) checkIters() error {
	if c.Iters < 1 {
		return fmt.Errorf("bench: iters %d: a cell times at least one iteration", c.Iters)
	}
	return nil
}

// FigurePlan is one figure decomposed into its cells before anything runs:
// the figure's metadata (Series carry labels only, no values), the row-major
// cell grid (cell i covers series i/len(Sizes) at size index i%len(Sizes)),
// and the figure's value conversion (latency vs bandwidth).
type FigurePlan struct {
	Fig   Figure
	Cells []Cell
	value func(c Cell, t sim.Time) float64
}

// Value converts one cell's measured virtual time into the figure's y-axis
// metric. The conversion is a pure function, so cached virtual times rebuild
// byte-identical figures.
func (p *FigurePlan) Value(c Cell, t sim.Time) float64 { return p.value(c, t) }

// Assemble builds the finished figure from per-cell virtual times in plan
// cell order.
func (p *FigurePlan) Assemble(times []sim.Time) *Figure {
	fig := p.Fig
	ns := len(fig.Sizes)
	fig.Series = make([]Series, len(p.Fig.Series))
	for r := range fig.Series {
		fig.Series[r] = Series{Label: p.Fig.Series[r].Label, Values: make([]float64, ns)}
		for s := 0; s < ns; s++ {
			i := r*ns + s
			fig.Series[r].Values[s] = p.value(p.Cells[i], times[i])
		}
	}
	return &fig
}

// planners maps servable experiment ids to their plan builders, in paper
// order. figS and the ablations are absent deliberately: the capacity sweep
// measures construction cost itself (a cell cache would measure nothing) and
// the ablations mutate tunables mid-run, so neither decomposes into
// independently cacheable cells.
func planners() []struct {
	ID   string
	Plan func(Options) (*FigurePlan, error)
} {
	return []struct {
		ID   string
		Plan func(Options) (*FigurePlan, error)
	}{
		{"fig6", planFig6},
		{"fig7", planFig7},
		{"fig8", planFig8},
		{"fig9", planFig9},
		{"fig10", planFig10},
		{"table1", planTable1},
	}
}

// PlannableExperiments lists the experiment ids PlanExperiment accepts.
func PlannableExperiments() []string {
	ps := planners()
	ids := make([]string, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}

// PlanExperiment decomposes one named experiment into its cell grid without
// running anything. Unknown or non-decomposable ids (figs, ablations) error.
func PlanExperiment(id string, o Options) (*FigurePlan, error) {
	for _, p := range planners() {
		if p.ID == id {
			return p.Plan(o)
		}
	}
	return nil, fmt.Errorf("bench: experiment %q is not cell-decomposable (servable: %v)", id, PlannableExperiments())
}

// runPlan executes a plan's cells across the sweep worker pool and assembles
// the figure; values land in fixed (series, size) slots regardless of
// completion order.
func runPlan(o Options, p *FigurePlan) (*Figure, error) {
	mode := o.runMode()
	times := make([]sim.Time, len(p.Cells))
	err := parallelEach(o.Workers, len(p.Cells), func(i int) error {
		t, err := p.Cells[i].Run(mode)
		if err != nil {
			return fmt.Errorf("%s @ %s: %w", p.Cells[i].Series, SizeLabel(p.Cells[i].Bytes()), err)
		}
		times[i] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.Assemble(times), nil
}
