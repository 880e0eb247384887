// figS is the rack-scale capacity experiment layered on top of the paper's
// figures: quad-mode partitions from 256 to 1,048,576 ranks running the
// small-message core-specialized tree broadcast and MPI_Barrier. Unlike the
// paper figures, which report only virtual time, figS also records what the
// simulator itself costs at each scale — wall-clock construction time,
// incremental growth time (Reconfigure from the previous point), measurement
// wall time, per-rank resident bytes at rest and after the runs, and peak
// heap — so capacity regressions show up in the committed benchmark record,
// not just in OOM kills.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// ScaleBcastMsg is the figS broadcast payload: 8 KB keeps the run in the
// small-message regime where per-rank software overheads — exactly the costs
// the flyweight layout targets — dominate over stream time.
const ScaleBcastMsg = 8 << 10

// scalePoint is one partition of the capacity sweep.
type scalePoint struct {
	ranks int
	torus [3]int
}

// scalePoints lists the sweep geometries: quad-mode partitions from 256
// ranks (a 64-node board) to 1,048,576 ranks (262,144 nodes, a 256-rack
// class machine — beyond any built BG/P, which is the point of a capacity
// experiment). Quick mode keeps three decades including the 65,536-rank
// point the CI capacity smoke budget is written against.
func scalePoints(quick bool) []scalePoint {
	pts := []scalePoint{
		{256, [3]int{4, 4, 4}},
		{1024, [3]int{8, 8, 4}},
		{4096, [3]int{16, 8, 8}},
		{16384, [3]int{16, 16, 16}},
		{65536, [3]int{32, 32, 16}},
		{262144, [3]int{64, 32, 32}},
		{1048576, [3]int{64, 64, 64}},
	}
	if quick {
		return []scalePoint{pts[0], pts[2], pts[4]}
	}
	return pts
}

// scaleConfig is the partition for one capacity point: quad mode, phantom
// buffers.
func scaleConfig(p scalePoint) hw.Config {
	cfg := hw.DefaultConfig()
	cfg.Torus.DX, cfg.Torus.DY, cfg.Torus.DZ = p.torus[0], p.torus[1], p.torus[2]
	cfg.Mode = hw.Quad
	cfg.Functional = false
	return cfg
}

// measureBarrierOn runs the loop with MPI_Barrier itself as the timed
// operation: one untimed barrier aligns the ranks, then the timed barrier's
// release arrives one interrupt-network latency later, so the per-iteration
// time equals Params.BarrierLatency exactly (analytic.TreeBarrier).
func measureBarrierOn(w *mpi.World, iters int, mode RunMode) (sim.Time, error) {
	w.M.K.SetNoProgram(mode.Reference)
	return runMeasure(w, opBarrier, 0, iters, 0, mode.NoExtrap)
}

// scaleCell is everything figS reports about one partition size.
type scaleCell struct {
	bcast, barrier           sim.Time
	construct, grow, runWall time.Duration
	perRankBytes             float64 // the settled world
	runStateBytes            float64 // what the runs left beside it
	peakHeapMB               float64
}

// measureScalePoint builds a fresh world for cfg and measures it. Heap
// accounting brackets construction, and then the runs, with GC'd heap
// snapshots, which is why the sweep runs its points serially on the
// calling goroutine — concurrent kernel runs would pollute the deltas
// (Options.Workers is ignored). The peak is the HeapInuse high water sampled
// through the run, not one reading at its end, which would land at an
// arbitrary point of the GC cycle. The world is returned still live so the caller can use it as the
// growth donor for the next point.
func measureScalePoint(cfg hw.Config, msg, iters int, mode RunMode) (scaleCell, *mpi.World, error) {
	runtime.GC()
	var before, settled runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return scaleCell{}, nil, err
	}
	cell := scaleCell{construct: time.Since(t0)}
	runtime.GC()
	runtime.ReadMemStats(&settled)
	// Live bytes, not HeapInuse: in-use spans move in 8 KB pages, so their
	// delta depends on where the world's objects land, and two runs of one
	// binary would print different footprints. The live delta still carries
	// the runtime's own few hundred bytes (thread and goroutine descriptors
	// it allocates when it likes), under half a byte per rank from 256 ranks
	// up, so the figure is rounded to whole bytes.
	if settled.HeapAlloc > before.HeapAlloc {
		cell.perRankBytes = math.Round(float64(settled.HeapAlloc-before.HeapAlloc) / float64(cfg.Ranks()))
	}
	sampler := StartHeapSampler()
	defer sampler.Peak() // joins the sampler on the error returns too
	t0 = time.Now()
	bcast := Cell{Cfg: cfg, Kind: CellBcast, Algo: mpi.BcastTreeShaddr, Arg: msg, Iters: iters}
	cell.bcast, err = bcast.RunOn(w, mode)
	if err != nil {
		return cell, nil, err
	}
	resetBetweenRuns(w)
	cell.barrier, err = measureBarrierOn(w, iters, mode)
	if err != nil {
		return cell, nil, err
	}
	cell.runWall = time.Since(t0)
	cell.peakHeapMB = float64(max(sampler.Peak(), settled.HeapInuse)) / float64(1<<20)
	resetBetweenRuns(w)
	cell.runStateBytes = runStateBytesPerRank(w, settled.HeapAlloc)
	return cell, w, nil
}

// runStateBytesPerRank is the run state w keeps between runs: the live heap
// its runs have added over settled, the HeapAlloc the GC'd world stood at
// after construction, per rank and rounded to whole bytes like the world's
// own footprint. It runs a GC first. Process slabs, driver slabs and
// recycled collective state all stay with a world across runs (a pooled one
// too), so at rack scale they sit beside the world in every run's peak.
func runStateBytesPerRank(w *mpi.World, settled uint64) float64 {
	runtime.GC()
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	runtime.KeepAlive(w)
	if now.HeapAlloc <= settled {
		return 0
	}
	return math.Round(float64(now.HeapAlloc-settled) / float64(w.Size()))
}

// The labels of figS's wall-clock series, in ms per point: a fresh world's
// construction, the donor's growth to the point, and the measured runs.
// bgpbench sums each over the points into the report's figS phases.
const (
	ScaleConstructLabel = "Construct (ms)"
	ScaleGrowLabel      = "Grow (ms)"
	ScaleRunLabel       = "Run wall (ms)"
)

// FigScale runs the capacity sweep. The Sizes axis is the rank count; the
// series mix units (labelled per series): virtual-time latencies for the two
// collectives, wall-clock construction/growth/run times, and footprint.
//
// The "Grow" series measures incremental construction: the previous point's
// world is grown in place with Reconfigure instead of being rebuilt, so the
// column is the marginal cost of capacity the partition already mostly owns.
// The first point has no predecessor; its grow cost is its cold build.
//
// Each point grows the donor first, drops it, and only then builds the fresh
// world it measures. The order matters for footprint, not semantics: growing
// after the build would hold two full-size worlds live at once at the top
// point (~2x peak RSS), and on a THP-less fault path the extra gigabytes of
// first-touch page zeroing dominate the sweep's wall clock. Dropping the
// grown donor before measureScalePoint's leading GC lets the fresh build
// reuse its freed spans instead of faulting new ones.
//
// Reference mode is honoured but inadvisable at the full scale: the top
// point would park a goroutine per rank (2^20 of them). The quick sweep caps
// at 65,536 ranks and runs fine in either mode.
func FigScale(o Options) (*Figure, error) {
	pts := scalePoints(o.Quick)
	iters := o.iters(2)
	sizes := make([]int, len(pts))
	for i, p := range pts {
		sizes[i] = p.ranks
	}
	fig := &Figure{
		ID:     "FigS",
		Title:  "Rack-scale capacity: small-message collectives and simulator footprint",
		XLabel: "ranks",
		YLabel: "mixed (per series label)",
		Ranks:  pts[len(pts)-1].ranks,
		Iters:  iters,
		Sizes:  sizes,
	}
	labels := []string{
		"Bcast 8K (us)",
		"Barrier (us)",
		ScaleConstructLabel,
		ScaleGrowLabel,
		ScaleRunLabel,
		"Per-rank (bytes)",
		"Peak heap (MB)",
		"Run state (B/rank)",
	}
	fig.Series = make([]Series, len(labels))
	for i, l := range labels {
		fig.Series[i] = Series{Label: l, Values: make([]float64, len(pts))}
	}
	var donor *mpi.World
	for i, pt := range pts {
		cfg := scaleConfig(pt)
		var grow time.Duration
		if donor != nil {
			t0 := time.Now()
			if err := donor.Reconfigure(cfg); err != nil {
				return nil, fmt.Errorf("figS grow to %d ranks: %w", pt.ranks, err)
			}
			grow = time.Since(t0)
			donor = nil // grown world becomes garbage before the fresh build
		}
		cell, w, err := measureScalePoint(cfg, ScaleBcastMsg, iters, o.runMode())
		if err != nil {
			return nil, fmt.Errorf("figS @ %d ranks: %w", pt.ranks, err)
		}
		if i == 0 {
			cell.grow = cell.construct
		} else {
			cell.grow = grow
		}
		donor = w // the fresh, measured world seeds the next point's growth
		for s, v := range []float64{
			cell.bcast.Microseconds(),
			cell.barrier.Microseconds(),
			float64(cell.construct) / float64(time.Millisecond),
			float64(cell.grow) / float64(time.Millisecond),
			float64(cell.runWall) / float64(time.Millisecond),
			cell.perRankBytes,
			cell.peakHeapMB,
			cell.runStateBytes,
		} {
			fig.Series[s].Values[i] = v
		}
	}
	return fig, nil
}
