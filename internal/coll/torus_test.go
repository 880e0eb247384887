package coll

import (
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
)

// torusBcastAlgos are the three torus broadcasts; each runs in every mode.
var torusBcastAlgos = []string{mpi.BcastTorusShaddr, mpi.BcastTorusFIFO, mpi.BcastTorusDirectPut}

// TestTorusBcastAllocationFree is TestTreeBcastAllocationFree for the torus
// broadcasts: a repeat broadcast allocates nothing — no per-call state,
// schedule, span list or delivery log, and no per-rank driver or finish
// closure. Their scratch lives for one run (torusScratch.EndRun): a run
// allocates its slabs, and one state per broadcast it has in flight at a
// time, on its first calls. The broadcasts are barrier-separated, as in
// the bench measure loops, so one state is in flight at a time; without
// the barrier, ranks that finish early run ahead by a number of
// broadcasts that grows with the run.
func TestTorusBcastAllocationFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, mode := range []hw.Mode{hw.Quad, hw.SMP} {
		for _, algo := range torusBcastAlgos {
			for _, geom := range [][3]int{{2, 2, 2}, {4, 2, 2}} {
				for _, size := range []int{64 << 10, 512 << 10} {
					cfg := testConfig(geom[0], geom[1], geom[2], mode)
					cfg.Functional = false
					if got := allocsPerBcast(t, cfg, algo, size, true); got > 0 {
						t.Errorf("%s %s %dx%dx%d %d B: %.1f allocations per repeat broadcast, want 0",
							mode, algo, geom[0], geom[1], geom[2], size, got)
					}
				}
			}
		}
	}
}

// TestTorusBcastRecycling is TestTreeBcastRecycling for the three torus
// broadcasts, whose states, schedules and drivers are recycled the same
// way.
func TestTorusBcastRecycling(t *testing.T) {
	checkBcastRecycling(t, func(hw.Mode) []string { return torusBcastAlgos })
}

// reduceLoop issues one rank's barrier-separated allreduces (root < 0) or
// reduces with its continuations bound once.
type reduceLoop struct {
	r          *mpi.Rank
	send, recv data.Buf
	root       int
	n, i       int
	stepFn     func()
	syncFn     func()
}

func (l *reduceLoop) step() {
	if l.i == l.n {
		return
	}
	l.i++
	if l.stepFn == nil {
		l.stepFn, l.syncFn = l.step, l.sync
	}
	if l.root < 0 {
		l.r.AllreduceSumThen(l.send, l.recv, l.syncFn)
		return
	}
	l.r.ReduceSumThen(l.send, l.recv, l.root, l.syncFn)
}

// sync holds the rank at a barrier before its next call: a reduce's
// non-root ranks finish at once and would otherwise run ahead through
// every call of the loop.
func (l *reduceLoop) sync() { l.r.BarrierThen(l.stepFn) }

// allocsPerReduce measures the heap allocations one more allreduce (root
// < 0) or reduce adds to a run on a warmed world, as allocsPerBcast does.
func allocsPerReduce(t *testing.T, cfg hw.Config, algo string, root, doubles int) float64 {
	t.Helper()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loops := make([]reduceLoop, w.Size())
	for id := range loops {
		r := w.Rank(id)
		loops[id] = reduceLoop{r: r, send: r.NewBuf(doubles * 8), recv: r.NewBuf(doubles * 8), root: root}
	}
	run := func(n int) float64 {
		body := func(r *mpi.Rank) {
			l := &loops[r.Rank()]
			l.r, l.n, l.i = r, n, 0
			l.step()
		}
		once := func() {
			w.Reset()
			w.Tunables.Allreduce = algo
			if _, err := w.RunProgram(body); err != nil {
				t.Fatal(err)
			}
		}
		once() // warm: slabs, free lists, arena slots, queue and waiter capacity
		return testing.AllocsPerRun(5, once)
	}
	one := run(1)
	five := run(5)
	return (five - one) / 4
}

// TestTorusReduceAllocationFree pins the same property for both allreduce
// algorithms and MPI_Reduce, whose per-call state, ccmi schedule, chunk
// lists and drivers are recycled within a run.
func TestTorusReduceAllocationFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	cases := []struct {
		name, algo string
		root       int
	}{
		{"allreduce.shaddr", mpi.AllreduceTorusNew, -1},
		{"allreduce.current", mpi.AllreduceTorusCurrent, -1},
		{"reduce", "", 5},
	}
	for _, mode := range []hw.Mode{hw.Quad, hw.SMP} {
		for _, c := range cases {
			for _, geom := range [][3]int{{2, 2, 2}, {4, 2, 2}} {
				for _, doubles := range []int{2 << 10, 64 << 10} {
					cfg := testConfig(geom[0], geom[1], geom[2], mode)
					cfg.Functional = false
					if got := allocsPerReduce(t, cfg, c.algo, c.root, doubles); got > 0 {
						t.Errorf("%s %s %dx%dx%d %d doubles: %.1f allocations per repeat call, want 0",
							mode, c.name, geom[0], geom[1], geom[2], doubles, got)
					}
				}
			}
		}
	}
}

// BenchmarkTorusBcast times four back-to-back 512 KB shared-address torus
// broadcasts on a warmed 128-rank quad world; allocs/op reads the steady
// per-run cost, which the recycled per-world state keeps to the run's own
// set-up.
func BenchmarkTorusBcast(b *testing.B) {
	cfg := testConfig(4, 4, 2, hw.Quad)
	cfg.Functional = false
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	calls := make([]bcastCall, 4)
	for k := range calls {
		calls[k] = bcastCall{size: 512 << 10, root: k}
	}
	loops := make([]repeatLoop, w.Size())
	body := func(r *mpi.Rank) {
		l := &loops[r.Rank()]
		l.arm(r, calls)
		l.step()
	}
	run := func() {
		w.Reset()
		w.Tunables.Bcast = mpi.BcastTorusShaddr
		if _, err := w.RunProgram(body); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm: slabs, free lists, arena slots, queue and waiter capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkTorusAllreduce times four back-to-back allreduces of 32 K
// doubles with the shared-address algorithm on a warmed 128-rank quad
// world.
func BenchmarkTorusAllreduce(b *testing.B) {
	cfg := testConfig(4, 4, 2, hw.Quad)
	cfg.Functional = false
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const doubles = 32 << 10
	loops := make([]reduceLoop, w.Size())
	for id := range loops {
		r := w.Rank(id)
		loops[id] = reduceLoop{send: r.NewBuf(doubles * 8), recv: r.NewBuf(doubles * 8), root: -1}
	}
	body := func(r *mpi.Rank) {
		l := &loops[r.Rank()]
		l.r, l.n, l.i = r, 4, 0
		l.step()
	}
	run := func() {
		w.Reset()
		w.Tunables.Allreduce = mpi.AllreduceTorusNew
		if _, err := w.RunProgram(body); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
