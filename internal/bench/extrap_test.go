package bench

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// extrapCases is the cross-section the extrapolation equivalence tests run:
// one representative of each measure-loop family (tree bcast in both
// window-based and DMA protocols, torus allreduce) at iteration counts long
// enough for the detector to engage.
func extrapCases() []struct {
	name string
	run  func(mode RunMode) (sim.Time, error)
} {
	quad := goldenConfig(hw.Quad)
	smp := goldenConfig(hw.SMP)
	return []struct {
		name string
		run  func(mode RunMode) (sim.Time, error)
	}{
		{"bcast/shaddr/16K x8", func(m RunMode) (sim.Time, error) {
			return bcastCell(quad, mpi.BcastTreeShaddr, 16<<10, 8).Run(m)
		}},
		{"bcast/shmem/256 x8", func(m RunMode) (sim.Time, error) {
			return bcastCell(quad, mpi.BcastTreeShmem, 256, 8).Run(m)
		}},
		{"bcast/dmafifo/64K x8", func(m RunMode) (sim.Time, error) {
			return bcastCell(quad, mpi.BcastTreeDMAFIFO, 64<<10, 8).Run(m)
		}},
		{"bcast/smp/4K x8", func(m RunMode) (sim.Time, error) {
			return bcastCell(smp, mpi.BcastTreeSMP, 4<<10, 8).Run(m)
		}},
		{"allreduce/shaddr/512 x8", func(m RunMode) (sim.Time, error) {
			return allreduceCell(quad, mpi.AllreduceTorusNew, 512, 8).Run(m)
		}},
		{"allreduce/current/512 x8", func(m RunMode) (sim.Time, error) {
			return allreduceCell(quad, mpi.AllreduceTorusCurrent, 512, 8).Run(m)
		}},
	}
}

// TestExtrapolationMatchesFullExecution pins the tentpole contract: an
// extrapolated measurement is bit-identical to full execution, in both
// program and goroutine-reference modes — and the test fails if the detector
// never actually engaged, so the equality cannot pass vacuously, or if the
// NoExtrap run skipped anything, so the reference really is full execution.
func TestExtrapolationMatchesFullExecution(t *testing.T) {
	for _, tc := range extrapCases() {
		for _, reference := range []bool{false, true} {
			name := tc.name
			if reference {
				name += "/reference"
			}
			before := ExtrapolatedIters()
			got, err := tc.run(RunMode{Reference: reference})
			if err != nil {
				t.Fatalf("%s: extrap run: %v", name, err)
			}
			skipped := ExtrapolatedIters() - before
			before = ExtrapolatedIters()
			want, err := tc.run(RunMode{Reference: reference, NoExtrap: true})
			if err != nil {
				t.Fatalf("%s: full run: %v", name, err)
			}
			if n := ExtrapolatedIters() - before; n != 0 {
				t.Errorf("%s: the NoExtrap run skipped %d iterations", name, n)
			}
			if got != want {
				t.Errorf("%s: extrapolated %v != full execution %v", name, got, want)
			}
			if skipped == 0 {
				t.Errorf("%s: extrapolation never engaged (0 iterations skipped)", name)
			}
		}
	}
}

// TestExtrapolationPooledReuse leases the same pooled world alternately for
// extrapolated and full runs: extrapolation must land the kernel in a state
// Reset rewinds exactly like a fully executed run's, so every lease agrees.
func TestExtrapolationPooledReuse(t *testing.T) {
	cfg := goldenConfig(hw.Quad)
	run := func(m RunMode) sim.Time {
		t.Helper()
		got, err := bcastCell(cfg, mpi.BcastTreeShaddr, 16<<10, 6).Run(m)
		if err != nil {
			t.Fatalf("measure: %v", err)
		}
		return got
	}
	want := run(RunMode{NoExtrap: true})
	for i := 0; i < 3; i++ {
		if got := run(RunMode{}); got != want {
			t.Fatalf("lease %d (extrap): got %v, want %v", i, got, want)
		}
		if got := run(RunMode{NoExtrap: true}); got != want {
			t.Fatalf("lease %d (full): got %v, want %v", i, got, want)
		}
	}
}

// TestExtrapolationItersScaleFidelity pins the high-iters mode: a 32×-scaled
// iteration count must produce exactly the value full execution of all 128
// iterations produces, with the tail extrapolated rather than executed —
// at least 120 of the 128 iterations must have been skipped (detection is
// allowed a warmup transient plus the attempt budget, nothing more).
func TestExtrapolationItersScaleFidelity(t *testing.T) {
	cfg := goldenConfig(hw.Quad)
	const iters = 4 * 32
	want, err := bcastCell(cfg, mpi.BcastTreeShaddr, 16<<10, iters).Run(RunMode{NoExtrap: true})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	before := ExtrapolatedIters()
	got, err := bcastCell(cfg, mpi.BcastTreeShaddr, 16<<10, iters).Run(RunMode{})
	if err != nil {
		t.Fatalf("scaled: %v", err)
	}
	if got != want {
		t.Fatalf("32x-iters extrapolated average %v != full execution %v", got, want)
	}
	if skipped := ExtrapolatedIters() - before; skipped < iters-8 {
		t.Fatalf("32x-iters run skipped only %d of %d iterations", skipped, iters)
	}
}

// TestExtrapolatorReusedPerWorld runs alternating allreduce and broadcast
// measurements on one world: every measurement re-arms the same per-world
// detector, engages it, and skips exactly as many iterations, at exactly
// the virtual time, that a fresh world's fresh detector does. The
// allreduces adopt protocol pipes after the first detector was armed, so
// later measurements also cover pipes the detector did not see at first.
func TestExtrapolatorReusedPerWorld(t *testing.T) {
	cfg := goldenConfig(hw.Quad)
	measure := func(w *mpi.World, op measureOp) (sim.Time, int64) {
		t.Helper()
		switch op {
		case opAllreduce:
			w.Tunables.Allreduce = mpi.AllreduceTorusNew
		default:
			w.Tunables.Bcast = mpi.BcastTreeShaddr
		}
		before := ExtrapolatedIters()
		got, err := runMeasure(w, op, 4<<10, 8, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		return got, ExtrapolatedIters() - before
	}
	fresh := func(op measureOp) (sim.Time, int64) {
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return measure(w, op)
	}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var x *extrapolator
	for i, op := range []measureOp{opAllreduce, opBcast, opAllreduce, opAllreduce, opBcast} {
		if i > 0 {
			w.Reset()
		}
		got, skipped := measure(w, op)
		want, wantSkipped := fresh(op)
		if got != want || skipped != wantSkipped {
			t.Errorf("measurement %d: %v with %d iterations skipped, fresh world %v with %d",
				i, got, skipped, want, wantSkipped)
		}
		if skipped == 0 {
			t.Errorf("measurement %d: extrapolation never engaged", i)
		}
		sx := w.Scratch(extrapKey, func() any { return nil }).(*extrapolator)
		if x != nil && sx != x {
			t.Errorf("measurement %d built a new extrapolator", i)
		}
		x = sx
	}
}

// TestExtrapolatedCellReportsFullPipeStatistics checks that extrapolation
// reproduces every pipe statistic, not only virtual times: a fresh world
// grows its torus links during its first measurement, after the detector
// is armed, and every one of them must still be extrapolated. The
// allreduce's machine.Report must equal the fully executed one field for
// field (it used to show 189 KB of torus bytes against 504 KB).
func TestExtrapolatedCellReportsFullPipeStatistics(t *testing.T) {
	measure := func(noExtrap bool) (sim.Time, machine.Report, int64) {
		t.Helper()
		w, err := mpi.NewWorld(goldenConfig(hw.Quad))
		if err != nil {
			t.Fatal(err)
		}
		w.Tunables.Allreduce = mpi.AllreduceTorusNew
		before := ExtrapolatedIters()
		got, err := runMeasure(w, opAllreduce, 4<<10, 8, 0, noExtrap)
		if err != nil {
			t.Fatal(err)
		}
		return got, w.M.Report(w.M.K.Now()), ExtrapolatedIters() - before
	}
	got, rep, skipped := measure(false)
	want, wantRep, _ := measure(true)
	if skipped == 0 {
		t.Fatal("extrapolation never engaged")
	}
	if got != want {
		t.Fatalf("extrapolated %v, fully executed %v", got, want)
	}
	if rep != wantRep {
		t.Errorf("extrapolated report %+v\nfully executed report %+v", rep, wantRep)
	}
}

// steadyDetectionPins are the steady-state detector's work and yield on
// torus-steady's six series (cmd/bgpperf) at its four sizes, on its 8x4x4
// partition at 32 iterations, run in this order on pooled worlds: the
// fingerprints each cell captures and the iterations it extrapolates. The
// allreduce.shaddr rows with 9 captures settle into a period-2 cycle, so
// they match at boundary 9 against the capture two back and skip 22 of the
// 23 iterations left. The values were recorded from the whole-capture
// window (steadyModel in internal/sim keeps that design as a reference).
var steadyDetectionPins = []struct {
	algo              string
	mode              hw.Mode
	arg               int // bytes, or doubles for an allreduce
	captures, skipped int64
}{
	{mpi.BcastTorusShaddr, hw.Quad, 110218, 4, 28},
	{mpi.BcastTorusShaddr, hw.Quad, 311744, 4, 28},
	{mpi.BcastTorusShaddr, hw.Quad, 881744, 4, 28},
	{mpi.BcastTorusShaddr, hw.Quad, 2493948, 4, 28},
	{mpi.BcastTorusFIFO, hw.Quad, 110218, 3, 29},
	{mpi.BcastTorusFIFO, hw.Quad, 311744, 3, 29},
	{mpi.BcastTorusFIFO, hw.Quad, 881744, 3, 29},
	{mpi.BcastTorusFIFO, hw.Quad, 2493948, 3, 29},
	{mpi.BcastTorusDirectPut, hw.Quad, 110218, 3, 29},
	{mpi.BcastTorusDirectPut, hw.Quad, 311744, 3, 29},
	{mpi.BcastTorusDirectPut, hw.Quad, 881744, 3, 29},
	{mpi.BcastTorusDirectPut, hw.Quad, 2493948, 3, 29},
	{mpi.BcastTorusDirectPut, hw.SMP, 110218, 3, 29},
	{mpi.BcastTorusDirectPut, hw.SMP, 311744, 3, 29},
	{mpi.BcastTorusDirectPut, hw.SMP, 881744, 3, 29},
	{mpi.BcastTorusDirectPut, hw.SMP, 2493948, 3, 29},
	{mpi.AllreduceTorusNew, hw.Quad, 13777, 5, 27},
	{mpi.AllreduceTorusNew, hw.Quad, 38968, 4, 28},
	{mpi.AllreduceTorusNew, hw.Quad, 110218, 9, 22}, // period 2: matches at boundary 9
	{mpi.AllreduceTorusNew, hw.Quad, 311743, 9, 22}, // period 2: matches at boundary 9
	{mpi.AllreduceTorusCurrent, hw.Quad, 13777, 3, 29},
	{mpi.AllreduceTorusCurrent, hw.Quad, 38968, 3, 29},
	{mpi.AllreduceTorusCurrent, hw.Quad, 110218, 3, 29},
	{mpi.AllreduceTorusCurrent, hw.Quad, 311743, 3, 29},
}

// TestSteadyDetectionPinned pins steadyDetectionPins: how the capture
// window is stored must not move when a match lands or how many
// iterations it skips.
func TestSteadyDetectionPinned(t *testing.T) {
	var captures atomic.Int64
	SetFingerprintObserver(func(time.Duration) { captures.Add(1) })
	defer SetFingerprintObserver(func(time.Duration) {})
	DrainWorldPool()
	for _, pin := range steadyDetectionPins {
		cfg := hw.DefaultConfig()
		cfg.Torus = geometry.Torus{DX: 8, DY: 4, DZ: 4}
		cfg.Mode = pin.mode
		cfg.Functional = false
		c := bcastCell(cfg, pin.algo, pin.arg, 32)
		if strings.HasPrefix(pin.algo, "allreduce.") {
			c = allreduceCell(cfg, pin.algo, pin.arg, 32)
		}
		c0, x0 := captures.Load(), ExtrapolatedIters()
		if _, err := c.Run(RunMode{}); err != nil {
			t.Fatalf("%s/%v %d: %v", pin.algo, pin.mode, pin.arg, err)
		}
		if got, skipped := captures.Load()-c0, ExtrapolatedIters()-x0; got != pin.captures || skipped != pin.skipped {
			t.Errorf("%s/%v %d: %d captures, %d iterations extrapolated; pinned %d, %d",
				pin.algo, pin.mode, pin.arg, got, skipped, pin.captures, pin.skipped)
		}
	}
	DrainWorldPool()
}
