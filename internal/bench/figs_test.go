package bench

import (
	"os"
	"runtime"
	"testing"
	"time"

	"bgpcoll/internal/analytic"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// scaleBcastTolerance bounds how far above the analytic lower bound the
// simulated small-message broadcast may land in the figS sweep: the bound
// models only the tree channel and the rank-2 double copy, while the
// simulator adds the software path the paper measures (window system calls,
// DMA descriptor handling, polling) — at 8 KB those overheads are the same
// order as the stream time. DESIGN.md §14 states this tolerance.
const scaleBcastTolerance = 4.0

// measureScaleOps runs the figS pair of measurements on a fresh-or-grown
// world: the small-message shared-address tree broadcast, then (after a
// reset) the barrier.
func measureScaleOps(t *testing.T, w *mpi.World, iters int) (bcast, barrier sim.Time) {
	t.Helper()
	bcast, err := bcastCell(w.M.Cfg, mpi.BcastTreeShaddr, ScaleBcastMsg, iters).RunOn(w, RunMode{})
	if err != nil {
		t.Fatalf("bcast: %v", err)
	}
	w.Reset()
	barrier, err = measureBarrierOn(w, iters, RunMode{})
	if err != nil {
		t.Fatalf("barrier: %v", err)
	}
	w.Reset()
	return bcast, barrier
}

// TestScaleMatchesAnalytic cross-validates the figS measurements against the
// closed-form models at the two smallest sweep points: the barrier must
// equal the interrupt-network latency exactly (every rank reaches the timed
// barrier at the same instant), and the broadcast must land at or above the
// analytic bound but within the stated tolerance of it.
func TestScaleMatchesAnalytic(t *testing.T) {
	for _, pt := range scalePoints(true)[:2] {
		cfg := scaleConfig(pt)
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bcast, barrier := measureScaleOps(t, w, 2)
		if want := analytic.TreeBarrier(cfg).T; barrier != want {
			t.Errorf("%d ranks: barrier = %v, want exactly %v (%s)",
				pt.ranks, barrier, want, analytic.TreeBarrier(cfg).Bottleneck)
		}
		bound, err := analytic.BcastBound(cfg, mpi.BcastTreeShaddr, ScaleBcastMsg)
		if err != nil {
			t.Fatal(err)
		}
		if bcast < bound.T {
			t.Errorf("%d ranks: bcast %v beats the %s bound %v", pt.ranks, bcast, bound.Bottleneck, bound.T)
		}
		if lim := sim.Time(scaleBcastTolerance * float64(bound.T)); bcast > lim {
			t.Errorf("%d ranks: bcast %v exceeds %gx the analytic bound %v",
				pt.ranks, bcast, scaleBcastTolerance, bound.T)
		}
	}
}

// TestGrownWorldMatchesFresh pins Reconfigure's contract: a world grown (or
// shrunk) to a new configuration measures bit-identically to one built fresh
// for it, even after the donor has been dirtied by a full measurement run.
func TestGrownWorldMatchesFresh(t *testing.T) {
	small := scaleConfig(scalePoints(true)[0]) // 256 ranks
	big := scaleConfig(scalePoints(true)[1])   // 4096 ranks

	freshSmall, err := mpi.NewWorld(small)
	if err != nil {
		t.Fatal(err)
	}
	smallBcast, smallBarrier := measureScaleOps(t, freshSmall, 2)
	freshBig, err := mpi.NewWorld(big)
	if err != nil {
		t.Fatal(err)
	}
	bigBcast, bigBarrier := measureScaleOps(t, freshBig, 2)

	// Grow: dirty a small world with a run, then reconfigure it up.
	grown, err := mpi.NewWorld(small)
	if err != nil {
		t.Fatal(err)
	}
	measureScaleOps(t, grown, 2)
	if err := grown.Reconfigure(big); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if b, br := measureScaleOps(t, grown, 2); b != bigBcast || br != bigBarrier {
		t.Fatalf("grown world measured (%v, %v), fresh (%v, %v)", b, br, bigBcast, bigBarrier)
	}

	// Shrink: the same world back down; the slab tail must be fully cold.
	if err := grown.Reconfigure(small); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if b, br := measureScaleOps(t, grown, 2); b != smallBcast || br != smallBarrier {
		t.Fatalf("shrunk world measured (%v, %v), fresh (%v, %v)", b, br, smallBcast, smallBarrier)
	}
}

// TestParallelConstructionMatchesSerial pins the build.go determinism
// argument end to end: a world built with one construction worker and a
// world built with many measure bit-identical virtual times. The 16,384-rank
// point is the smallest sweep geometry whose node slab clears the
// per-worker block minimum, so the parallel path genuinely fans out.
func TestParallelConstructionMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("16K-rank construction in -short mode")
	}
	cfg := scaleConfig(scalePoints(false)[3]) // 16384 ranks, 4096 nodes
	defer func(old int) { machine.BuildWorkers = old }(machine.BuildWorkers)

	machine.BuildWorkers = 1
	serial, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sBcast, sBarrier := measureScaleOps(t, serial, 1)

	machine.BuildWorkers = 8
	par, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pBcast, pBarrier := measureScaleOps(t, par, 1)

	if sBcast != pBcast || sBarrier != pBarrier {
		t.Fatalf("parallel construction measured (%v, %v), serial (%v, %v)",
			pBcast, pBarrier, sBcast, sBarrier)
	}
}

// capacityBudgetBytesPerRank is the committed per-rank footprint ceiling at
// the 65,536-rank capacity point: 40% under the 464 B/rank the pre-flyweight
// representation cost (the flyweight layout measures ~201 B/rank; the slack
// absorbs allocator and geometry noise without letting the old layout back
// in).
const capacityBudgetBytesPerRank = 278.0

// capacityRunBudgetBytesPerRank is the committed ceiling on the run state a
// 65,536-rank world keeps beside itself after the capacity smoke's
// broadcast and barrier (runStateBytesPerRank): the process slabs, the
// per-rank measure loops and tree-broadcast drivers, and the recycled
// collective state. It measures 523 B/rank; the ceiling adds under 10%.
const capacityRunBudgetBytesPerRank = 575.0

// capacityExtrapRunBudgetBytesPerRank is the committed ceiling on the same
// run state once an extrapolated 8-iteration broadcast has also run: the
// steady-state detector's capture window (one fingerprint stream and two
// lane arrays) stays with the world. It measures 694 B/rank; the
// ceiling adds under 10%.
const capacityExtrapRunBudgetBytesPerRank = 760.0

// TestCapacitySmoke65k is the CI capacity gate: a 65,536-rank world must
// construct, fit the per-rank budget, complete a small broadcast and a
// barrier, and keep no more run state than its budget, before and after an
// extrapolated broadcast. CI runs it under
// GOMEMLIMIT so a footprint regression fails fast instead of thrashing.
func TestCapacitySmoke65k(t *testing.T) {
	if testing.Short() {
		t.Skip("65K-rank world in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates the footprint this test budgets")
	}
	cfg := scaleConfig(scalePoints(true)[2]) // 65536 ranks
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	construct := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRank := float64(after.HeapInuse-before.HeapInuse) / float64(cfg.Ranks())
	if perRank > capacityBudgetBytesPerRank {
		t.Fatalf("per-rank footprint %.1f B exceeds the %.0f B budget", perRank, capacityBudgetBytesPerRank)
	}
	_, barrier := measureScaleOps(t, w, 1)
	if want := analytic.TreeBarrier(cfg).T; barrier != want {
		t.Fatalf("barrier = %v, want %v", barrier, want)
	}
	runState := runStateBytesPerRank(w, after.HeapAlloc)
	t.Logf("65536 ranks: construct=%v perRank=%.1fB runState=%.0fB", construct, perRank, runState)
	if runState > capacityRunBudgetBytesPerRank {
		t.Fatalf("run state %.0f B/rank exceeds the %.0f B budget", runState, capacityRunBudgetBytesPerRank)
	}

	skipped := ExtrapolatedIters()
	if _, err := bcastCell(cfg, mpi.BcastTreeShaddr, ScaleBcastMsg, 8).RunOn(w, RunMode{}); err != nil {
		t.Fatalf("extrapolated bcast: %v", err)
	}
	if skipped = ExtrapolatedIters() - skipped; skipped == 0 {
		t.Fatal("the 8-iteration broadcast extrapolated nothing")
	}
	w.Reset()
	extrapState := runStateBytesPerRank(w, after.HeapAlloc)
	t.Logf("65536 ranks, after an 8-iteration broadcast that extrapolated %d: runState=%.0fB", skipped, extrapState)
	if extrapState > capacityExtrapRunBudgetBytesPerRank {
		t.Fatalf("run state after extrapolation %.0f B/rank exceeds the %.0f B budget", extrapState, capacityExtrapRunBudgetBytesPerRank)
	}
}

// TestRackScale1M is the headline capacity claim: a 1,048,576-rank world
// constructs and completes a small broadcast plus a barrier. It allocates
// several hundred MB and runs for tens of seconds, so it only runs when
// asked for by name:
//
//	BGPCOLL_RACK_SCALE=1 go test ./internal/bench/ -run TestRackScale1M -v
func TestRackScale1M(t *testing.T) {
	if os.Getenv("BGPCOLL_RACK_SCALE") == "" {
		t.Skip("set BGPCOLL_RACK_SCALE=1 to run the 1M-rank capacity test")
	}
	if testing.Short() {
		t.Skip("1M-rank world in -short mode")
	}
	pts := scalePoints(false)
	cfg := scaleConfig(pts[len(pts)-1]) // 1048576 ranks
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	construct := time.Since(start)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRank := float64(after.HeapInuse-before.HeapInuse) / float64(cfg.Ranks())
	bcast, barrier := measureScaleOps(t, w, 1)
	t.Logf("1048576 ranks: construct=%v perRank=%.1fB bcast=%v barrier=%v",
		construct, perRank, bcast, barrier)
	if want := analytic.TreeBarrier(cfg).T; barrier != want {
		t.Fatalf("barrier = %v, want %v", barrier, want)
	}
	if bcast <= 0 {
		t.Fatal("bcast did not advance virtual time")
	}
}
