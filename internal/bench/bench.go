// Package bench regenerates every figure and table of the paper's
// performance study (§VI) on the simulated machine: the micro-benchmark loop
// of Fig. 5 drives the collective under test, and each experiment sweeps the
// paper's message sizes and algorithm set.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// Options control experiment scale and effort.
type Options struct {
	// Racks selects the partition for the collective-network experiments:
	// 1 or 2 (the paper used 2 = 8192 ranks). Zero means each experiment's
	// default.
	Racks int
	// Iters is the micro-benchmark repetition count (Fig. 5's ITERS).
	// Zero means each experiment's default.
	Iters int
	// Quick trims the message-size sweeps for fast smoke runs.
	Quick bool
	// Workers bounds the sweep runner's pool: every (series, size) cell is
	// an independent deterministic kernel run, fanned across this many
	// goroutines and merged in fixed cell order. 0 means GOMAXPROCS; 1
	// forces the serial path.
	Workers int
	// Reference runs every kernel in noProgram reference mode: rank bodies
	// execute on goroutine processes, one goroutine per rank, with every
	// plan run step by step, instead of as inline programs. Virtual times
	// are bit-identical either way; only wall-clock differs.
	Reference bool
	// NoExtrap disables steady-state iteration extrapolation: every measure
	// loop executes all of its iterations literally (the reference mode the
	// extrapolation equivalence gates compare against). Results are
	// bit-identical either way; only wall-clock differs.
	NoExtrap bool
	// ItersScale multiplies every experiment's resolved iteration count
	// (values < 2 mean no scaling): the high-fidelity mode matching the
	// paper-style hundreds-of-repetitions methodology, affordable because
	// post-steady iterations are extrapolated rather than executed.
	ItersScale int
}

// runMode is the execution vehicle o selects for every measurement.
func (o Options) runMode() RunMode {
	return RunMode{Reference: o.Reference, NoExtrap: o.NoExtrap}
}

func (o Options) iters(def int) int {
	it := o.Iters
	if it <= 0 {
		it = def
	}
	if o.ItersScale > 1 {
		it *= o.ItersScale
	}
	return it
}

// Figure is one reproduced figure or table: a set of series over message
// sizes.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Ranks and Iters are the resolved experiment scale — the values actually
	// used after per-experiment defaults are applied to Options — so a run
	// report stays attributable without re-deriving option defaults. For
	// scaling sweeps Ranks is the largest partition measured.
	Ranks  int
	Iters  int
	Sizes  []int
	Series []Series
}

// Series is one curve: a label and one value per Figure.Sizes entry.
type Series struct {
	Label  string
	Values []float64
}

// CSV renders the figure as comma-separated values for plotting.
func (f *Figure) CSV(w io.Writer) {
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, f.XLabel)
	for _, s := range f.Series {
		cols = append(cols, s.Label)
	}
	fmt.Fprintf(w, "# %s: %s (%s)\n", f.ID, f.Title, f.YLabel)
	fmt.Fprintln(w, strings.Join(cols, ","))
	for i, size := range f.Sizes {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, fmt.Sprintf("%d", size))
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.3f", s.Values[i]))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
	fmt.Fprintln(w)
}

// Print renders the figure as an aligned text table.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "(x: %s, y: %s)\n", f.XLabel, f.YLabel)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	head := make([]string, 0, len(f.Series)+1)
	head = append(head, f.XLabel)
	for _, s := range f.Series {
		head = append(head, s.Label)
	}
	fmt.Fprintln(tw, strings.Join(head, "\t"))
	for i, size := range f.Sizes {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, SizeLabel(size))
		for _, s := range f.Series {
			row = append(row, fmt.Sprintf("%.2f", s.Values[i]))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Value returns the measurement for (series label, size), for EXPERIMENTS
// cross-checks.
func (f *Figure) Value(label string, size int) (float64, bool) {
	si := -1
	for i, s := range f.Sizes {
		if s == size {
			si = i
		}
	}
	if si < 0 {
		return 0, false
	}
	for _, s := range f.Series {
		if s.Label == label {
			return s.Values[si], true
		}
	}
	return 0, false
}

// SizeLabel formats a byte count the way the paper's axes do.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// MeasureBcast runs the Fig. 5 micro-benchmark for one broadcast
// configuration from rank 0 and returns the average per-iteration time (the
// slowest rank's, as a wall-clock observer would see).
//
//	elapsed_time = 0
//	for i < ITERS { MPI_Barrier; start = MPI_Wtime; MPI_Bcast; elapsed += ... }
//	elapsed_time /= ITERS
func MeasureBcast(cfg hw.Config, algo string, msg, iters int) (sim.Time, error) {
	return Cell{Cfg: cfg, Kind: CellBcast, Algo: algo, Arg: msg, Iters: iters}.Run(RunMode{})
}

// RunMode selects the execution vehicle of one measurement. Every vehicle
// produces bit-identical virtual times; the fields trade wall-clock for
// reference simplicity and exist for overhead attribution and determinism
// cross-checks.
type RunMode struct {
	// Reference puts the kernel in noProgram mode: rank bodies run on
	// goroutine processes, plans step by step, instead of as inline
	// programs.
	Reference bool
	// NoExtrap runs every measure-loop iteration literally instead of
	// extrapolating from the detected steady state (see extrap.go).
	NoExtrap bool
}

// measureOp is the collective a measure loop times.
type measureOp uint8

const (
	opBcast     measureOp = iota // BcastThen of buf from the measurement's root
	opAllreduce                  // AllreduceSumThen of send into recv
	opBarrier                    // BarrierThen itself
)

// measureLoop is the Fig. 5 micro-benchmark loop (barrier; time one
// collective; repeat) as a state machine: its one continuation, step, is a
// method value bound once per slot, where the closure form allocated two per
// iteration per rank — the dominant bench-side entry in the sweep
// allocation profile. Loops live in one per-world slab (measureLoops),
// indexed by rank: at rack scale a million tiny pointer-bearing objects per
// measurement is real GC mark and sweep work, and a pooled world re-arms the
// slab it already has. What every rank's loop of a measurement shares sits
// once in the slab's measurement header, so a slot holds only its rank's
// own state; an allreduce's receive buffers, which no other loop has, sit
// in the header's recv slab.
type measureLoop struct {
	r       *mpi.Rank
	m       *measurement
	a       data.Buf // the bcast payload, or the allreduce's send buffer
	i       int
	elapsed sim.Time
	start   sim.Time // the timed operation's start, or noStart while the loop is in its barrier

	stepFn func() // bound step
}

// noStart marks a loop whose pending continuation ends a barrier, not the
// timed operation. Virtual time is never negative.
const noStart sim.Time = -1

// measurement is the header every rank's measure loop of one measurement
// shares.
type measurement struct {
	op    measureOp
	iters int
	root  int           // the broadcast root
	worst sim.Time      // the slowest rank's average so far
	ext   *extrapolator // steady-state detector, nil when extrapolation is off
	recv  []data.Buf    // by rank: the allreduce's receive buffers
}

// measureKey names the measure-loop slab on every world.
var measureKey = mpi.NewScratchKey("bench.measure")

// measureSlab is a world's measure loops, one per rank, and the header of
// the measurement they run.
type measureSlab struct {
	m     measurement
	loops []measureLoop
}

func newMeasureSlab() any { return &measureSlab{} }

// measureLoops returns w's measure-loop slab with its loops sized to w's
// ranks. The loops only grow, like the world's rank slab, so a pooled world
// moving between partitions keeps its bound loops. It runs before Run, on
// the goroutine driving w.
func measureLoops(w *mpi.World) *measureSlab {
	s := w.Scratch(measureKey, newMeasureSlab).(*measureSlab)
	if len(s.loops) < w.Size() {
		s.loops = make([]measureLoop, w.Size())
	}
	return s
}

// runMeasure runs the Fig. 5 loop timing op on every rank of w, with
// bytes-sized operands and a broadcast from root, and returns the slowest
// rank's average.
func runMeasure(w *mpi.World, op measureOp, bytes, iters, root int, noExtrap bool) (sim.Time, error) {
	s := measureLoops(w)
	ext := newExtrapolator(w, iters, noExtrap)
	recv := s.m.recv[:0]
	if op == opAllreduce {
		if cap(recv) < w.Size() {
			recv = make([]data.Buf, w.Size())
		}
		recv = recv[:w.Size()]
	}
	s.m = measurement{op: op, iters: iters, root: root, ext: ext, recv: recv}
	loops := s.loops[:w.Size()]
	_, err := w.RunProgram(func(r *mpi.Rank) {
		l := &loops[r.Rank()]
		l.arm(r, &s.m)
		switch op {
		case opBcast:
			l.a = r.NewBuf(bytes)
		case opAllreduce:
			l.a, s.m.recv[r.Rank()] = r.NewBuf(bytes), r.NewBuf(bytes)
		}
		ext.attach(l)
		l.iter()
	})
	return s.m.worst, err
}

// arm resets a slab slot for one measurement, binding its continuation on
// the slot's first use.
func (l *measureLoop) arm(r *mpi.Rank, m *measurement) {
	if l.stepFn == nil {
		l.stepFn = l.step
	}
	*l = measureLoop{r: r, m: m, start: noStart, stepFn: l.stepFn}
}

// iter starts the next iteration, or folds the average into the shared
// worst once all are done (dropping the operands, which the slab would
// otherwise keep alive until the next measurement).
//
//bgplint:hot
func (l *measureLoop) iter() {
	m := l.m
	if l.i == m.iters {
		avg := l.elapsed / sim.Time(m.iters)
		if avg > m.worst {
			m.worst = avg
		}
		l.a = data.Buf{}
		if m.op == opAllreduce {
			m.recv[l.r.Rank()] = data.Buf{}
		}
		return
	}
	l.r.BarrierThen(l.stepFn)
}

// step is the loop's continuation: the end of the iteration's barrier while
// start is noStart, the end of its timed operation otherwise.
//
//bgplint:hot
func (l *measureLoop) step() {
	if l.start == noStart {
		l.afterBarrier()
		return
	}
	l.elapsed += l.r.Now() - l.start
	l.start = noStart
	l.i++
	l.iter()
}

// afterBarrier consults the extrapolator before reading the clock: the
// boundary hook may fast-forward virtual time, in which case this iteration
// proceeds live as the final one.
//
//bgplint:hot
func (l *measureLoop) afterBarrier() {
	m := l.m
	if m.ext != nil {
		m.ext.boundary()
	}
	l.start = l.r.Now()
	switch m.op {
	case opBcast:
		l.r.BcastThen(l.a, m.root, l.stepFn)
	case opAllreduce:
		l.r.AllreduceSumThen(l.a, m.recv[l.r.Rank()], l.stepFn)
	default:
		l.r.BarrierThen(l.stepFn)
	}
}

// MeasureAllreduce runs the micro-benchmark for one allreduce configuration.
func MeasureAllreduce(cfg hw.Config, algo string, doubles, iters int) (sim.Time, error) {
	return Cell{Cfg: cfg, Kind: CellAllreduce, Algo: algo, Arg: doubles, Iters: iters}.Run(RunMode{})
}

// BandwidthMBs converts a message size and per-operation time to the
// figures' MB/s metric.
func BandwidthMBs(msg int, t sim.Time) float64 {
	if t <= 0 {
		return 0
	}
	return float64(msg) / t.Seconds() / 1e6
}

// treeConfig returns the collective-network experiment partition.
func treeConfig(o Options, mode hw.Mode) (hw.Config, error) {
	racks := o.Racks
	if racks == 0 {
		racks = 2 // the paper's 8192-rank system
	}
	cfg, err := hw.RackConfig(racks)
	if err != nil {
		return cfg, err
	}
	cfg.Mode = mode
	return cfg, nil
}

// torusConfig returns the torus experiment partition: a 512-node midplane by
// default (steady-state torus bandwidth is scale-insensitive; see DESIGN.md),
// or full racks when requested.
func torusConfig(o Options, mode hw.Mode) (hw.Config, error) {
	if o.Racks == 0 {
		cfg := hw.MidplaneConfig()
		cfg.Mode = mode
		return cfg, nil
	}
	return treeConfig(o, mode)
}

// sweep trims a full message-size list for quick runs, always retaining the
// first and last sizes and the headline sizes the paper quotes.
func sweep(quick bool, full []int, keep ...int) []int {
	if !quick {
		return full
	}
	want := map[int]bool{full[0]: true, full[len(full)-1]: true}
	for i := 3; i < len(full); i += 3 {
		want[full[i]] = true
	}
	for _, k := range keep {
		want[k] = true
	}
	out := make([]int, 0, len(want))
	for _, v := range full {
		if want[v] {
			out = append(out, v)
		}
	}
	return out
}
