package bench

import (
	"fmt"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// bcastRow is one curve of a broadcast figure: a label, the partition it
// runs on, and the algorithm under test.
type bcastRow struct {
	Label string
	Cfg   hw.Config
	Algo  string
}

// bcastPlan builds the row-major cell grid for a broadcast figure. fig
// arrives with metadata and Sizes set; the series labels are derived from
// the rows and the values stay empty until Assemble.
func bcastPlan(id string, fig Figure, rows []bcastRow, iters int, value func(c Cell, t sim.Time) float64) *FigurePlan {
	fig.Iters = iters
	fig.Series = make([]Series, len(rows))
	cells := make([]Cell, 0, len(rows)*len(fig.Sizes))
	for r, row := range rows {
		fig.Series[r] = Series{Label: row.Label}
		for _, size := range fig.Sizes {
			cells = append(cells, Cell{
				Experiment: id,
				Series:     row.Label,
				Cfg:        row.Cfg,
				Kind:       CellBcast,
				Algo:       row.Algo,
				Arg:        size,
				Iters:      iters,
			})
		}
	}
	return &FigurePlan{Fig: fig, Cells: cells, value: value}
}

func latencyUS(_ Cell, t sim.Time) float64 { return t.Microseconds() }

// bandwidth is the MB/s conversion shared by every throughput figure; it
// works for allreduce cells too because Cell.Bytes already accounts for the
// doubles axis.
func bandwidth(c Cell, t sim.Time) float64 { return BandwidthMBs(c.Bytes(), t) }

// planFig6 decomposes "Latency of MPI Bcast" over the collective network:
// short messages, quad mode, comparing the shared-memory algorithm, the DMA
// FIFO algorithm, and the SMP-mode hardware reference.
func planFig6(o Options) (*FigurePlan, error) {
	sizes := sweep(o.Quick, []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}, 8)
	quad, err := treeConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	smp, err := treeConfig(o, hw.SMP)
	if err != nil {
		return nil, err
	}
	return bcastPlan("fig6", Figure{
		ID:     "Fig6",
		Title:  fmt.Sprintf("Latency of MPI_Bcast, collective network, %d ranks", quad.Ranks()),
		XLabel: "size",
		YLabel: "latency (us)",
		Ranks:  quad.Ranks(),
		Sizes:  sizes,
	}, []bcastRow{
		{"CollectiveNetwork+Shmem", quad, mpi.BcastTreeShmem},
		{"CollectiveNetwork+DMA FIFO", quad, mpi.BcastTreeDMAFIFO},
		{"CollectiveNetwork (SMP)", smp, mpi.BcastTreeSMP},
	}, o.iters(3), latencyUS), nil
}

// Fig6 reproduces planFig6's figure in-process.
func Fig6(o Options) (*Figure, error) {
	return runPlanned(o, planFig6)
}

// planFig7 decomposes "Bandwidth of MPI Bcast" over the collective network:
// medium and large messages, comparing the shared-address algorithm against
// the DMA-based quad algorithms and the SMP reference.
func planFig7(o Options) (*FigurePlan, error) {
	sizes := sweep(o.Quick, []int{
		1 << 10, 4 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10,
		256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
	}, 128<<10)
	quad, err := treeConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	smp, err := treeConfig(o, hw.SMP)
	if err != nil {
		return nil, err
	}
	// iters amortizes one-time window mappings, like the paper's ITERS loop.
	return bcastPlan("fig7", Figure{
		ID:     "Fig7",
		Title:  fmt.Sprintf("Bandwidth of MPI_Bcast, collective network, %d ranks", quad.Ranks()),
		XLabel: "size",
		YLabel: "bandwidth (MB/s)",
		Ranks:  quad.Ranks(),
		Sizes:  sizes,
	}, []bcastRow{
		{"CollectiveNetwork+Shaddr", quad, mpi.BcastTreeShaddr},
		{"CollectiveNetwork+DMA FIFO", quad, mpi.BcastTreeDMAFIFO},
		{"CollectiveNetwork+DMA Direct Put", quad, mpi.BcastTreeDMADirect},
		{"CollectiveNetwork (SMP)", smp, mpi.BcastTreeSMP},
	}, o.iters(3), bandwidth), nil
}

// Fig7 reproduces planFig7's figure in-process.
func Fig7(o Options) (*Figure, error) {
	return runPlanned(o, planFig7)
}

// planFig8 decomposes the system-call overhead study: the shared-address
// tree broadcast with and without the buffer-mapping cache. Multiple
// iterations with the same buffers amortize the process-window system calls
// only when caching is enabled.
func planFig8(o Options) (*FigurePlan, error) {
	sizes := sweep(o.Quick, []int{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 128 << 10,
		256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
	}, 1<<10)
	cached, err := treeConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	nocache := cached
	nocache.Params.MapCacheEnabled = false
	return bcastPlan("fig8", Figure{
		ID:     "Fig8",
		Title:  fmt.Sprintf("Overhead of system calls, %d ranks", cached.Ranks()),
		XLabel: "size",
		YLabel: "bandwidth (MB/s)",
		Ranks:  cached.Ranks(),
		Sizes:  sizes,
	}, []bcastRow{
		{"CollectiveNetwork+Shaddr+caching", cached, mpi.BcastTreeShaddr},
		{"CollectiveNetwork+Shaddr+nocaching", nocache, mpi.BcastTreeShaddr},
	}, o.iters(4), bandwidth), nil
}

// Fig8 reproduces planFig8's figure in-process.
func Fig8(o Options) (*Figure, error) {
	return runPlanned(o, planFig8)
}

// planFig9 decomposes the scaling study: the shared-address tree broadcast
// at 1024, 2048, 4096 and 8192 ranks. The collective network's bandwidth is
// scale-invariant; only the traversal latency grows.
func planFig9(o Options) (*FigurePlan, error) {
	sizes := sweep(o.Quick, []int{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20,
	}, 4<<20)
	geoms := []struct {
		ranks int
		torus [3]int
	}{
		{1024, [3]int{8, 8, 4}},
		{2048, [3]int{8, 8, 8}},
		{4096, [3]int{8, 8, 16}},
		{8192, [3]int{16, 8, 16}},
	}
	rows := make([]bcastRow, len(geoms))
	for i, g := range geoms {
		cfg := hw.DefaultConfig()
		cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = g.torus[0], g.torus[1], g.torus[2]
		cfg.Mode = hw.Quad
		cfg.Functional = false
		rows[i] = bcastRow{fmt.Sprintf("CollectiveNetwork+Shaddr(%d)", g.ranks), cfg, mpi.BcastTreeShaddr}
	}
	return bcastPlan("fig9", Figure{
		ID:     "Fig9",
		Title:  "Performance with increasing scale (CollectiveNetwork+Shaddr)",
		XLabel: "size",
		YLabel: "bandwidth (MB/s)",
		Ranks:  geoms[len(geoms)-1].ranks,
		Sizes:  sizes,
	}, rows, o.iters(3), bandwidth), nil
}

// Fig9 reproduces planFig9's figure in-process.
func Fig9(o Options) (*Figure, error) {
	return runPlanned(o, planFig9)
}

// planFig10 decomposes "Bandwidth of MPI Bcast" over the torus: large
// messages, comparing the shared-address and Bcast-FIFO algorithms against
// the DMA direct-put broadcast in quad and SMP modes.
func planFig10(o Options) (*FigurePlan, error) {
	sizes := sweep(o.Quick, []int{
		64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20,
	}, 2<<20, 4<<20)
	quad, err := torusConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	smp, err := torusConfig(o, hw.SMP)
	if err != nil {
		return nil, err
	}
	return bcastPlan("fig10", Figure{
		ID:     "Fig10",
		Title:  fmt.Sprintf("Bandwidth of MPI_Bcast, 3D torus, %d ranks", quad.Ranks()),
		XLabel: "size",
		YLabel: "bandwidth (MB/s)",
		Ranks:  quad.Ranks(),
		Sizes:  sizes,
	}, []bcastRow{
		{"Torus+Shaddr", quad, mpi.BcastTorusShaddr},
		{"Torus+FIFO", quad, mpi.BcastTorusFIFO},
		{"Torus Direct Put", quad, mpi.BcastTorusDirectPut},
		{"Torus Direct Put(SMP)", smp, mpi.BcastTorusDirectPut},
	}, o.iters(1), bandwidth), nil
}

// Fig10 reproduces planFig10's figure in-process.
func Fig10(o Options) (*Figure, error) {
	return runPlanned(o, planFig10)
}

// planTable1 decomposes "Allreduce throughput": doubles counts from 16K to
// 512K, the proposed core-specialized algorithm against the current
// DMA-based one.
func planTable1(o Options) (*FigurePlan, error) {
	doubleCounts := sweep(o.Quick, []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}, 512<<10)
	iters := o.iters(1)
	cfg, err := torusConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	fig := Figure{
		ID:     "TableI",
		Title:  fmt.Sprintf("Allreduce throughput (doubles), 3D torus, %d ranks", cfg.Ranks()),
		XLabel: "doubles",
		YLabel: "throughput (MB/s)",
		Ranks:  cfg.Ranks(),
		Iters:  iters,
		Sizes:  doubleCounts,
	}
	rows := []struct {
		label string
		algo  string
	}{
		{"New (MB/s)", mpi.AllreduceTorusNew},
		{"Current (MB/s)", mpi.AllreduceTorusCurrent},
	}
	fig.Series = make([]Series, len(rows))
	cells := make([]Cell, 0, len(rows)*len(doubleCounts))
	for r, row := range rows {
		fig.Series[r] = Series{Label: row.label}
		for _, doubles := range doubleCounts {
			cells = append(cells, Cell{
				Experiment: "table1",
				Series:     row.label,
				Cfg:        cfg,
				Kind:       CellAllreduce,
				Algo:       row.algo,
				Arg:        doubles,
				Iters:      iters,
			})
		}
	}
	return &FigurePlan{Fig: fig, Cells: cells, value: bandwidth}, nil
}

// Table1 reproduces planTable1's figure in-process.
func Table1(o Options) (*Figure, error) {
	return runPlanned(o, planTable1)
}

// runPlanned plans and runs one figure on the in-process sweep runner.
func runPlanned(o Options, plan func(Options) (*FigurePlan, error)) (*Figure, error) {
	p, err := plan(o)
	if err != nil {
		return nil, err
	}
	return runPlan(o, p)
}

// namedExperiment binds an experiment id to its runner.
type namedExperiment struct {
	ID  string
	Run func(Options) (*Figure, error)
}

// Experiments lists every reproducible artifact in paper order.
func Experiments() []namedExperiment {
	return []namedExperiment{
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"table1", Table1},
		{"figs", FigScale},
	}
}
