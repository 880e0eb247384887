package bench

import (
	"fmt"
	"runtime"
	"runtime/pprof"
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// poolCell is one measurement whose result must not depend on whether its
// world was freshly constructed or leased from the pool.
type poolCell struct {
	name string
	cfg  hw.Config
	run  func() (sim.Time, error)
}

// poolCells covers every tree broadcast family plus an allreduce, in both
// the production and the reference kernel modes, at golden (2x2x2) scale.
func poolCells() []poolCell {
	var cells []poolCell
	add := func(name string, cfg hw.Config, run func() (sim.Time, error)) {
		cells = append(cells, poolCell{name: name, cfg: cfg, run: run})
	}
	for _, reference := range []bool{false, true} {
		reference := reference
		tag := "prod"
		if reference {
			tag = "ref"
		}
		quad := goldenConfig(hw.Quad)
		for _, algo := range []string{mpi.BcastTreeShaddr, mpi.BcastTreeDMAFIFO, mpi.BcastTreeDMADirect} {
			algo := algo
			add(fmt.Sprintf("%s/%s", algo, tag), quad, func() (sim.Time, error) {
				return bcastCell(quad, algo, 64<<10, 2).Run(RunMode{Reference: reference})
			})
		}
		smp := goldenConfig(hw.SMP)
		add(fmt.Sprintf("%s/%s", mpi.BcastTreeSMP, tag), smp, func() (sim.Time, error) {
			return bcastCell(smp, mpi.BcastTreeSMP, 64<<10, 2).Run(RunMode{Reference: reference})
		})
		add(fmt.Sprintf("%s/%s", mpi.AllreduceTorusNew, tag), quad, func() (sim.Time, error) {
			return allreduceCell(quad, mpi.AllreduceTorusNew, 1024, 1).Run(RunMode{Reference: reference})
		})
	}
	return cells
}

// TestPooledWorldMeasuresIdentically runs each cell twice: the first run
// constructs its world (the pool is drained), the second leases the world
// the first released. The virtual time must be bit-identical — the pooled
// world is indistinguishable from a fresh one.
func TestPooledWorldMeasuresIdentically(t *testing.T) {
	for _, c := range poolCells() {
		DrainWorldPool()
		fresh, err := c.run()
		if err != nil {
			t.Fatalf("%s fresh: %v", c.name, err)
		}
		if n := PooledWorlds(); n != 1 {
			t.Fatalf("%s: %d pooled worlds after fresh run, want 1", c.name, n)
		}
		reused, err := c.run()
		if err != nil {
			t.Fatalf("%s reused: %v", c.name, err)
		}
		if reused != fresh {
			t.Fatalf("%s: pooled world measured %v, fresh world %v", c.name, reused, fresh)
		}
		if n := PooledWorlds(); n != 1 {
			t.Fatalf("%s: %d pooled worlds after reuse, want 1 (lease must pop, release must push)", c.name, n)
		}
	}
	DrainWorldPool()
	if n := PooledWorlds(); n != 0 {
		t.Fatalf("%d pooled worlds after drain", n)
	}
}

// TestFailedRunsAreNotPooled drives the two failure paths releaseWorld
// guards against: a run whose rank body panics mid-measurement (the kernel
// converts the panic into a failed Run) and a run that deadlocks. Both
// leave the kernel holding parked or aborted processes, so the world must
// be dropped from the pool, and the next lease must construct fresh — a
// fresh world that measures exactly what an undisturbed one measures. Run
// under -race this also checks that dropping a failed world cannot race a
// concurrent lease.
func TestFailedRunsAreNotPooled(t *testing.T) {
	cfg := goldenConfig(hw.Quad)

	// Baseline: the cell's answer starting from a pristine pool.
	DrainWorldPool()
	want, err := bcastCell(cfg, mpi.BcastTreeShaddr, 64<<10, 2).Run(RunMode{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		body func(r *mpi.Rank)
	}{
		{"panic", func(r *mpi.Rank) {
			if r.Rank() == 0 {
				r.BarrierThen(func() { panic("mid-measurement failure") })
			} else {
				r.BarrierThen(func() {})
			}
		}},
		{"deadlock", func(r *mpi.Rank) {
			if r.Rank() == 0 {
				r.BarrierThen(func() {}) // nobody else joins; parked forever
			}
		}},
	}
	for _, tc := range cases {
		DrainWorldPool()
		w, err := leaseWorld(cfg)
		if err != nil {
			t.Fatalf("%s: lease: %v", tc.name, err)
		}
		_, runErr := w.RunProgram(tc.body)
		if runErr == nil {
			t.Fatalf("%s: run succeeded; the fixture must fail", tc.name)
		}
		releaseWorld(cfg, w, runErr)
		if n := PooledWorlds(); n != 0 {
			t.Fatalf("%s: %d pooled worlds after a failed run, want 0 (failed kernels hold parked processes)", tc.name, n)
		}

		got, err := bcastCell(cfg, mpi.BcastTreeShaddr, 64<<10, 2).Run(RunMode{})
		if err != nil {
			t.Fatalf("%s: measurement after the failed run: %v", tc.name, err)
		}
		if got != want {
			t.Fatalf("%s: fresh world after failure measured %v, want %v", tc.name, got, want)
		}
		if n := PooledWorlds(); n != 1 {
			t.Fatalf("%s: %d pooled worlds after the recovery run, want 1", tc.name, n)
		}
	}
	DrainWorldPool()
}

// TestWorldPoolParallelSweep drives the pool from concurrent workers, the
// way `bgpbench -par` does: each cell is measured several times in parallel
// and every result must match the serial answer. Run under -race this also
// checks the lease/release locking.
func TestWorldPoolParallelSweep(t *testing.T) {
	cells := poolCells()
	serial := make([]sim.Time, len(cells))
	DrainWorldPool()
	for i, c := range cells {
		v, err := c.run()
		if err != nil {
			t.Fatalf("%s serial: %v", c.name, err)
		}
		serial[i] = v
	}

	const repeats = 3
	DrainWorldPool()
	got := make([]sim.Time, len(cells)*repeats)
	err := parallelEach(4, len(got), func(i int) error {
		v, err := cells[i%len(cells)].run()
		got[i] = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		c := cells[i%len(cells)]
		if v != serial[i%len(cells)] {
			t.Errorf("%s (parallel job %d): got %v, serial %v", c.name, i, v, serial[i%len(cells)])
		}
	}
	// The pool never holds more worlds per config than workers that ran one.
	if n := PooledWorlds(); n == 0 || n > 4*len(cells) {
		t.Fatalf("%d pooled worlds after parallel sweep", n)
	}
	DrainWorldPool()
}

// TestPoolCrossConfigLeasing interleaves measurements over distinct
// configurations through the shared pool on the sweep runner's
// workers. Every lease resolves one of three ways — an exact hit, a donor of
// a different configuration grown in place with Reconfigure, or a fresh
// construction — and all three must measure bit-identically to a world built
// on a pristine pool. Under -race this also exercises the pool lock around
// donor removal and the unlocked Reconfigure that follows it.
func TestPoolCrossConfigLeasing(t *testing.T) {
	big := goldenConfig(hw.Quad)
	big.Torus = geometry.Torus{DX: 2, DY: 2, DZ: 4}
	cells := []struct {
		name string
		run  func() (sim.Time, error)
	}{
		{"quad 2x2x2", func() (sim.Time, error) {
			return MeasureBcast(goldenConfig(hw.Quad), mpi.BcastTreeShaddr, 8<<10, 2)
		}},
		{"smp 2x2x2", func() (sim.Time, error) {
			return MeasureBcast(goldenConfig(hw.SMP), mpi.BcastTreeSMP, 8<<10, 2)
		}},
		{"quad 2x2x4", func() (sim.Time, error) {
			return MeasureBcast(big, mpi.BcastTreeShaddr, 8<<10, 2)
		}},
	}

	base := make([]sim.Time, len(cells))
	for i, c := range cells {
		DrainWorldPool()
		v, err := c.run()
		if err != nil {
			t.Fatalf("%s baseline: %v", c.name, err)
		}
		base[i] = v
	}

	// Sequential interleave starting from a pool seeded with a mismatched
	// config: every lease after the first must grow a donor or hit exactly.
	DrainWorldPool()
	for round := 0; round < 3; round++ {
		for i, c := range cells {
			v, err := c.run()
			if err != nil {
				t.Fatalf("%s round %d: %v", c.name, round, err)
			}
			if v != base[i] {
				t.Errorf("%s round %d: got %v, pristine-pool baseline %v", c.name, round, v, base[i])
			}
		}
	}

	// Concurrent interleave: mixed configs in flight at once.
	DrainWorldPool()
	const jobs = 12
	got := make([]sim.Time, jobs)
	err := parallelEach(4, jobs, func(i int) error {
		v, err := cells[i%len(cells)].run()
		got[i] = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != base[i%len(cells)] {
			t.Errorf("%s (parallel job %d): got %v, baseline %v", cells[i%len(cells)].name, i, v, base[i%len(cells)])
		}
	}
	DrainWorldPool()
}

// TestPooledAllreduceRetention is the retention table of the allreduce
// cells: a pooled world that has run 50 identical allreduce cells retains
// exactly the heap it retained after the first. Each call used to leak
// one protocol pipe per node into the kernel, and per-call counters pinned
// the waiter storage of their arena slots; anything a cell leaves behind
// for good shows up here as growth. The cells run fully executed, so no
// steady-state detector is armed. The first cells also settle a few
// free-list headers (under 256 B on a 4x4x2 quad world), so the bound is
// 1 KiB: a per-cell leak of 21 B exceeds it.
//
// When the Go runtime starts an OS thread during the 50 cells, it keeps
// that thread's descriptors on the heap for good (about 5 KB), which is not
// the simulator's retention. Such a window is measured again, so the
// bound holds the simulator alone; a leak grows every window.
func TestPooledAllreduceRetention(t *testing.T) {
	cfg := goldenConfig(hw.Quad)
	cfg.Torus = geometry.Torus{DX: 4, DY: 4, DZ: 2}
	threads := pprof.Lookup("threadcreate")
	for _, algo := range []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent} {
		DrainWorldPool()
		cell := func() {
			if _, err := allreduceCell(cfg, algo, 16<<10, 4).Run(RunMode{NoExtrap: true}); err != nil {
				t.Fatal(err)
			}
		}
		retained := func() uint64 {
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
		for window := 1; ; window++ {
			cell()
			one, started := retained(), threads.Count()
			for i := 1; i < 50; i++ {
				cell()
			}
			fifty := retained()
			if threads.Count() != started && window < 3 {
				t.Logf("%s: the runtime started an OS thread during window %d (%+d B); measuring again",
					algo, window, int64(fifty)-int64(one))
				continue
			}
			if fifty > one+1<<10 {
				t.Errorf("%s: a pooled world retains %d B after 50 cells, %d B after 1 (+%d B)",
					algo, fifty, one, fifty-one)
			}
			break
		}
	}
	DrainWorldPool()
}
