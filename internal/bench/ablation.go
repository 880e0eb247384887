package bench

import (
	"fmt"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// Ablation studies for the design choices DESIGN.md calls out. They are not
// figures from the paper; they quantify why the paper's parameters are what
// they are.

// ablationMsg is the message size the ablations probe (the paper's headline
// large-message point).
const ablationMsg = 2 << 20

// measureTorusBcast times one quad torus broadcast of ablationMsg with the
// Fig. 5 loop on a pooled world (worldpool.go).
func measureTorusBcast(cfg hw.Config, algo string, colors int, mode RunMode) (sim.Time, error) {
	w, err := leaseWorld(cfg)
	if err != nil {
		return 0, err
	}
	w.Tunables.TorusColors = colors
	c := Cell{Cfg: cfg, Kind: CellBcast, Algo: algo, Arg: ablationMsg, Iters: 1}
	worst, err := c.RunOn(w, mode)
	releaseWorld(cfg, w, err)
	return worst, err
}

// AblationColors sweeps the number of edge-disjoint routes used by the
// torus shared-address broadcast: bandwidth should scale nearly linearly
// with the color count until another resource saturates, justifying the
// six-color design.
func AblationColors(o Options) (*Figure, error) {
	cfg, err := torusConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	counts := []int{1, 2, 3, 4, 5, 6}
	if o.Quick {
		counts = []int{1, 3, 6}
	}
	fig := &Figure{
		ID:     "AblationColors",
		Title:  fmt.Sprintf("Torus+Shaddr 2M broadcast vs color count, %d ranks", cfg.Ranks()),
		XLabel: "colors",
		YLabel: "bandwidth (MB/s)",
		Ranks:  cfg.Ranks(),
		Iters:  1,
		Sizes:  counts,
	}
	s := Series{Label: "Torus+Shaddr(2M)", Values: make([]float64, len(counts))}
	err = parallelEach(o.Workers, len(counts), func(i int) error {
		t, err := measureTorusBcast(cfg, mpi.BcastTorusShaddr, counts[i], o.runMode())
		if err != nil {
			return err
		}
		s.Values[i] = BandwidthMBs(ablationMsg, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationChunk sweeps the software pipeline width (the paper's Pwidth):
// small chunks expose per-chunk overheads, huge chunks stall the
// network/intra-node overlap the message counters exist to create.
func AblationChunk(o Options) (*Figure, error) {
	widths := []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
	if o.Quick {
		widths = []int{2 << 10, 16 << 10, 256 << 10}
	}
	base, err := torusConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "AblationChunk",
		Title:  fmt.Sprintf("Torus+Shaddr 2M broadcast vs pipeline width, %d ranks", base.Ranks()),
		XLabel: "Pwidth",
		YLabel: "bandwidth (MB/s)",
		Ranks:  base.Ranks(),
		Iters:  1,
		Sizes:  widths,
	}
	s := Series{Label: "Torus+Shaddr(2M)", Values: make([]float64, len(widths))}
	err = parallelEach(o.Workers, len(widths), func(i int) error {
		cfg := base
		cfg.Params.MinChunk = widths[i]
		cfg.Params.MaxChunk = widths[i]
		t, err := measureTorusBcast(cfg, mpi.BcastTorusShaddr, 0, o.runMode())
		if err != nil {
			return err
		}
		s.Values[i] = BandwidthMBs(ablationMsg, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// AblationFIFO sweeps the Bcast FIFO capacity (slot count at the default
// slot size): a shallow FIFO back-pressures the master's enqueue against
// the slowest reader, a deep one approaches the shared-address pipeline.
func AblationFIFO(o Options) (*Figure, error) {
	slotCounts := []int{2, 4, 8, 16, 32, 64}
	if o.Quick {
		slotCounts = []int{2, 16, 64}
	}
	base, err := torusConfig(o, hw.Quad)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "AblationFIFO",
		Title:  fmt.Sprintf("Torus+FIFO 2M broadcast vs FIFO depth (%d B slots), %d ranks", base.Params.FIFOSlotBytes, base.Ranks()),
		XLabel: "slots",
		YLabel: "bandwidth (MB/s)",
		Ranks:  base.Ranks(),
		Iters:  1,
		Sizes:  slotCounts,
	}
	s := Series{Label: "Torus+FIFO(2M)", Values: make([]float64, len(slotCounts))}
	err = parallelEach(o.Workers, len(slotCounts), func(i int) error {
		cfg := base
		cfg.Params.FIFOSlots = slotCounts[i]
		t, err := measureTorusBcast(cfg, mpi.BcastTorusFIFO, 0, o.runMode())
		if err != nil {
			return err
		}
		s.Values[i] = BandwidthMBs(ablationMsg, t)
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, s)
	return fig, nil
}

// Ablations lists the ablation experiments.
func Ablations() []namedExperiment {
	return []namedExperiment{
		{"ablation.colors", AblationColors},
		{"ablation.chunk", AblationChunk},
		{"ablation.fifo", AblationFIFO},
	}
}
