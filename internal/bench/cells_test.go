package bench

import (
	"strings"
	"testing"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// TestPlanExperimentGrids pins the plan decomposition: every servable
// experiment plans into a row-major grid whose cell count, labels, and sizes
// match the figure metadata, without running anything.
func TestPlanExperimentGrids(t *testing.T) {
	for _, id := range PlannableExperiments() {
		p, err := PlanExperiment(id, Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		nr, ns := len(p.Fig.Series), len(p.Fig.Sizes)
		if nr == 0 || ns == 0 {
			t.Fatalf("%s: empty plan (%d series, %d sizes)", id, nr, ns)
		}
		if len(p.Cells) != nr*ns {
			t.Fatalf("%s: %d cells, want %d series x %d sizes", id, len(p.Cells), nr, ns)
		}
		for i, c := range p.Cells {
			r, s := i/ns, i%ns
			if c.Experiment != id {
				t.Fatalf("%s cell %d: experiment %q", id, i, c.Experiment)
			}
			if c.Series != p.Fig.Series[r].Label {
				t.Fatalf("%s cell %d: series %q, want %q", id, i, c.Series, p.Fig.Series[r].Label)
			}
			if c.Arg != p.Fig.Sizes[s] {
				t.Fatalf("%s cell %d: arg %d, want size %d", id, i, c.Arg, p.Fig.Sizes[s])
			}
			if c.Iters != p.Fig.Iters {
				t.Fatalf("%s cell %d: iters %d, want %d", id, i, c.Iters, p.Fig.Iters)
			}
			if err := c.Cfg.Validate(); err != nil {
				t.Fatalf("%s cell %d: invalid config: %v", id, i, err)
			}
		}
	}
}

func TestPlanExperimentUnknown(t *testing.T) {
	for _, id := range []string{"figs", "ablation.colors", "nope"} {
		if _, err := PlanExperiment(id, Options{}); err == nil {
			t.Fatalf("PlanExperiment(%q) succeeded; want not-cell-decomposable error", id)
		}
	}
}

// bcastCell and allreduceCell are the cells the measure tests run: a
// broadcast of msg bytes from rank 0, an allreduce of doubles doubles.
func bcastCell(cfg hw.Config, algo string, msg, iters int) Cell {
	return Cell{Cfg: cfg, Kind: CellBcast, Algo: algo, Arg: msg, Iters: iters}
}

func allreduceCell(cfg hw.Config, algo string, doubles, iters int) Cell {
	return Cell{Cfg: cfg, Kind: CellAllreduce, Algo: algo, Arg: doubles, Iters: iters}
}

// TestCellRunMatchesMeasure pins that the exported cell entry points are one
// measurement: Cell.Run on a pooled world, Cell.RunOn on a fresh one, and
// the MeasureBcast/MeasureAllreduce constructors agree, for a non-zero
// broadcast root too.
func TestCellRunMatchesMeasure(t *testing.T) {
	cfg := tinyConfig()
	rooted := bcastCell(cfg, mpi.BcastTreeShaddr, 64<<10, 2)
	rooted.Root = 5
	for _, c := range []Cell{
		bcastCell(cfg, mpi.BcastTorusShaddr, 64<<10, 2),
		rooted,
		allreduceCell(cfg, mpi.AllreduceTorusNew, 4096, 1),
	} {
		got, err := c.Run(RunMode{})
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := c.RunOn(w, RunMode{})
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Fatalf("%s root %d: Cell.Run %d ps, RunOn a fresh world %d ps", c.Kind, c.Root, int64(got), int64(fresh))
		}
	}
	// A tree broadcast from a rank that is not its node's first core pays
	// an intra-node hop a root-0 one does not, so a root that never reached
	// the measure loop shows here.
	fromZero, err := bcastCell(cfg, mpi.BcastTreeShaddr, 64<<10, 2).Run(RunMode{})
	if fromFive, _ := rooted.Run(RunMode{}); err != nil || fromFive == fromZero {
		t.Fatalf("tree broadcast from root 5 %d ps, from root 0 %d ps (%v): the root was not used", int64(fromFive), int64(fromZero), err)
	}
	want, err := MeasureBcast(cfg, mpi.BcastTorusShaddr, 64<<10, 2)
	if got, _ := bcastCell(cfg, mpi.BcastTorusShaddr, 64<<10, 2).Run(RunMode{}); err != nil || got != want {
		t.Fatalf("MeasureBcast %d ps (%v), Cell.Run %d ps", int64(want), err, int64(got))
	}
	a := allreduceCell(cfg, mpi.AllreduceTorusNew, 4096, 1)
	wantA, err := MeasureAllreduce(cfg, mpi.AllreduceTorusNew, 4096, 1)
	if got, _ := a.Run(RunMode{}); err != nil || got != wantA {
		t.Fatalf("MeasureAllreduce %d ps (%v), Cell.Run %d ps", int64(wantA), err, int64(got))
	}
	if a.Bytes() != 4096*8 {
		t.Fatalf("allreduce Bytes() = %d, want %d", a.Bytes(), 4096*8)
	}
}

// TestCellRefusesNoIterations: a cell of 0 or -3 iterations is refused
// with an error naming iters, before anything runs, through every library
// entry point. Unchecked, 0 divided by zero inside a rank and -3 never
// finished, so a regression fails or hangs here.
func TestCellRefusesNoIterations(t *testing.T) {
	cfg := tinyConfig()
	for _, iters := range []int{0, -3} {
		entries := []struct {
			name string
			run  func() (sim.Time, error)
		}{
			{"MeasureBcast", func() (sim.Time, error) { return MeasureBcast(cfg, mpi.BcastTreeShmem, 1024, iters) }},
			{"MeasureAllreduce", func() (sim.Time, error) { return MeasureAllreduce(cfg, mpi.AllreduceTorusNew, 128, iters) }},
			{"RunOn", func() (sim.Time, error) {
				w, err := mpi.NewWorld(cfg)
				if err != nil {
					return 0, err
				}
				return bcastCell(cfg, mpi.BcastTorusShaddr, 1024, iters).RunOn(w, RunMode{})
			}},
		}
		for _, e := range entries {
			if _, err := e.run(); err == nil || !strings.Contains(err.Error(), "iters") {
				t.Errorf("%s with iters %d: error %v, want one naming iters", e.name, iters, err)
			}
		}
	}
}

// TestAssembleFillsRowMajor checks the times-to-figure mapping and that
// value conversion happens per cell.
func TestAssembleFillsRowMajor(t *testing.T) {
	p, err := PlanExperiment("fig6", Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	times := make([]sim.Time, len(p.Cells))
	for i := range times {
		times[i] = sim.Time(i+1) * 1000
	}
	fig := p.Assemble(times)
	ns := len(fig.Sizes)
	for r := range fig.Series {
		for s := range fig.Series[r].Values {
			want := p.Value(p.Cells[r*ns+s], times[r*ns+s])
			if fig.Series[r].Values[s] != want {
				t.Fatalf("series %d size %d: %v, want %v", r, s, fig.Series[r].Values[s], want)
			}
		}
	}
}
