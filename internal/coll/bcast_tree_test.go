package coll

import (
	"fmt"
	"strings"
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// treeAlgosFor lists the collective-network broadcasts that run in mode:
// SMP mode has one process per node and runs only the helper-thread
// algorithm; quad and dual run the four intra-node variants.
func treeAlgosFor(mode hw.Mode) []string {
	if mode == hw.SMP {
		return []string{mpi.BcastTreeSMP}
	}
	return []string{mpi.BcastTreeShmem, mpi.BcastTreeDMAFIFO, mpi.BcastTreeDMADirect, mpi.BcastTreeShaddr}
}

// repeatLoop issues one rank's back-to-back broadcasts, with no barrier in
// between unless barrier is set, optionally sleeping before each call, and
// records each call's completion time. Its continuations are bound once, so
// the loop itself allocates nothing per broadcast.
type repeatLoop struct {
	r       *mpi.Rank
	calls   []bcastCall
	bufs    []data.Buf
	ends    []sim.Time
	i       int
	barrier bool
	callFn  func()
	nextFn  func()
	stepFn  func()
}

// bcastCall is one broadcast of a repeat sequence: its size and root, and
// how long the root sleeps before calling.
type bcastCall struct {
	size, root int
	rootDelay  sim.Time
}

func (l *repeatLoop) arm(r *mpi.Rank, calls []bcastCall) {
	if l.callFn == nil {
		l.callFn, l.nextFn, l.stepFn = l.call, l.next, l.step
	}
	l.r, l.calls, l.i = r, calls, 0
	l.ends = l.ends[:0]
	if len(l.bufs) != len(calls) {
		l.bufs = make([]data.Buf, len(calls))
		for k, c := range calls {
			l.bufs[k] = r.NewBuf(c.size)
		}
	}
	for k, c := range calls {
		if !l.bufs[k].IsReal() {
			continue
		}
		seed := payloadSeed(k, c)
		if r.Rank() != c.root {
			seed = ^seed // stale contents must not pass the payload check
		}
		l.bufs[k].Fill(seed)
	}
}

func payloadSeed(k int, c bcastCall) uint64 { return uint64(k*1_000_003 + c.size + c.root) }

func (l *repeatLoop) step() {
	if l.i == len(l.calls) {
		return
	}
	c := l.calls[l.i]
	if l.r.Rank() == c.root && c.rootDelay > 0 {
		l.r.Proc().SleepThen(c.rootDelay, l.callFn)
		return
	}
	l.call()
}

func (l *repeatLoop) call() {
	l.r.BcastThen(l.bufs[l.i], l.calls[l.i].root, l.nextFn)
}

func (l *repeatLoop) next() {
	l.ends = append(l.ends, l.r.Now())
	l.i++
	if l.barrier {
		l.r.BarrierThen(l.stepFn)
		return
	}
	l.step()
}

// runRepeats runs calls on every rank of w and returns each rank's
// completion times, checking every payload in functional mode.
func runRepeats(t *testing.T, w *mpi.World, loops []repeatLoop, calls []bcastCall) [][]sim.Time {
	t.Helper()
	if _, err := w.RunProgram(func(r *mpi.Rank) {
		l := &loops[r.Rank()]
		l.arm(r, calls)
		l.step()
	}); err != nil {
		t.Fatalf("%s: %v", w.Tunables.Bcast, err)
	}
	ends := make([][]sim.Time, w.Size())
	for id := range ends {
		l := &loops[id]
		ends[id] = append([]sim.Time(nil), l.ends...)
		if len(l.ends) != len(calls) {
			t.Fatalf("%s: rank %d finished %d of %d broadcasts", w.Tunables.Bcast, id, len(l.ends), len(calls))
		}
		for k, c := range calls {
			if !l.bufs[k].IsReal() {
				continue
			}
			want := data.New(c.size, true)
			want.Fill(payloadSeed(k, c))
			if !data.Equal(l.bufs[k], want) {
				t.Errorf("%s: rank %d broadcast %d has the wrong payload", w.Tunables.Bcast, id, k)
			}
		}
	}
	return ends
}

// repeatCalls is the recycling sequence on a partition of ranks with ppn
// ranks per node: differing sizes (one chunk, many chunks, a few) and roots,
// with the roots of the pipelined broadcast and of the last one arriving
// late, so fast ranks run ahead into the next broadcast while slow ones
// still finish the previous. Only the first broadcast, which every rank
// enters at time zero, has a non-master root; TestTreeBcastWaitsForLateRoot
// covers a late one.
func repeatCalls(ranks, ppn int) []bcastCall {
	return []bcastCall{
		{size: 64, root: 1 % ranks},
		{size: 200 << 10, root: ranks - ppn, rootDelay: sim.Microseconds(20)},
		{size: 8 << 10, root: ranks / ppn / 2 * ppn},
		{size: 64, root: 0, rootDelay: sim.Microseconds(3)},
	}
}

// freshEnds runs the sequence on a fresh world, in program mode or in the
// noProgram reference vehicle.
func freshEnds(t *testing.T, cfg hw.Config, algo string, calls []bcastCall, reference bool) [][]sim.Time {
	t.Helper()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Tunables.Bcast = algo
	w.M.K.SetNoProgram(reference)
	return runRepeats(t, w, make([]repeatLoop, w.Size()), calls)
}

func equalEnds(a, b [][]sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// TestTreeBcastRecycling drives one world through back-to-back tree
// broadcasts of every algorithm, in quad, SMP and dual mode, across Resets
// and Reconfigures (quad -> SMP -> dual -> quad): a recycled state or driver
// slot that kept anything from an earlier broadcast, run or partition would
// change a completion time or a payload. Every run must match a fresh world
// and the noProgram reference vehicle rank for rank, broadcast for
// broadcast.
func TestTreeBcastRecycling(t *testing.T) {
	checkBcastRecycling(t, func(mode hw.Mode) []string {
		return append(treeAlgosFor(mode), "") // "" = auto selection mixes algorithms
	})
}

// checkBcastRecycling runs the recycling sequence for each broadcast
// algorithm algos lists per mode on one world moved through every mode.
func checkBcastRecycling(t *testing.T, algos func(hw.Mode) []string) {
	w, err := mpi.NewWorld(testConfig(2, 2, 1, hw.Quad))
	if err != nil {
		t.Fatal(err)
	}
	var loops []repeatLoop
	for _, mode := range []hw.Mode{hw.Quad, hw.SMP, hw.Dual, hw.Quad} {
		cfg := testConfig(2, 2, 1, mode)
		if w.M.Cfg != cfg {
			if err := w.Reconfigure(cfg); err != nil {
				t.Fatal(err)
			}
		}
		loops = make([]repeatLoop, w.Size())
		calls := repeatCalls(w.Size(), cfg.Mode.ProcsPerNode())
		for _, algo := range algos(mode) {
			name := fmt.Sprintf("%s/%s", mode, algo)
			w.Reset()
			w.Tunables.Bcast = algo
			got := runRepeats(t, w, loops, calls)
			if fresh := freshEnds(t, cfg, algo, calls, false); !equalEnds(got, fresh) {
				t.Errorf("%s: reused world %v, fresh world %v", name, got, fresh)
			}
			if ref := freshEnds(t, cfg, algo, calls, true); !equalEnds(got, ref) {
				t.Errorf("%s: program mode %v, noProgram reference %v", name, got, ref)
			}
		}
	}
}

// TestTreeBcastDeadlockNamesCounter: with node 0's master absent from the
// second broadcast, node 0's shmem peers starve on its software counter, and
// the deadlock report must still name that counter with its broadcast
// sequence number and node, although the name is formatted lazily.
func TestTreeBcastDeadlockNamesCounter(t *testing.T) {
	w, err := mpi.NewWorld(testConfig(2, 1, 1, hw.Quad))
	if err != nil {
		t.Fatal(err)
	}
	w.Tunables.Bcast = mpi.BcastTreeShmem
	_, err = w.RunProgram(func(r *mpi.Rank) {
		buf := r.NewBuf(64)
		r.BcastThen(buf, 0, func() {
			if r.Rank() == 0 {
				return // skips the second broadcast
			}
			r.BcastThen(buf, 0, func() {})
		})
	})
	if err == nil {
		t.Fatal("run with an absent master did not deadlock")
	}
	if !strings.Contains(err.Error(), "counter:treebc2.sw0>=64") {
		t.Fatalf("deadlock report does not name node 0's software counter: %v", err)
	}
}

// allocsPerBcast measures the heap allocations one more broadcast adds to a
// run on a warmed world: the difference between runs of five and of one
// back-to-back broadcasts, per extra broadcast, with a barrier after each
// broadcast if barrier is set. Run set-up (process spawns, Reset, anything
// a run allocates once) costs the same in both and cancels.
func allocsPerBcast(t *testing.T, cfg hw.Config, algo string, size int, barrier bool) float64 {
	t.Helper()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	loops := make([]repeatLoop, w.Size())
	run := func(n int) float64 {
		calls := make([]bcastCall, n)
		for k := range calls {
			calls[k] = bcastCall{size: size, root: k % w.Size()}
		}
		for id := range loops {
			loops[id].bufs = nil // fresh operands for this sequence length
		}
		body := func(r *mpi.Rank) {
			l := &loops[r.Rank()]
			l.arm(r, calls)
			l.barrier = barrier
			l.step()
		}
		once := func() {
			w.Reset()
			w.Tunables.Bcast = algo
			if _, err := w.RunProgram(body); err != nil {
				t.Fatal(err)
			}
		}
		once() // warm: slabs, free list, arena slots, queue and waiter capacity
		return testing.AllocsPerRun(5, once)
	}
	one := run(1)
	five := run(5)
	return (five - one) / 4
}

// TestTreeBcastAllocationFree pins the tentpole property: on a warmed world
// a repeat tree broadcast allocates nothing, at any rank count and chunk
// count. Re-introducing a per-call closure (the finish step, the master's
// reception step) or a per-call driver (the master pump, a chunk loop)
// allocates per rank per broadcast and fails here.
func TestTreeBcastAllocationFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	for _, mode := range []hw.Mode{hw.Quad, hw.Dual, hw.SMP} {
		for _, algo := range treeAlgosFor(mode) {
			for _, geom := range [][3]int{{2, 2, 2}, {4, 4, 2}} {
				for _, size := range []int{8 << 10, 1 << 20} {
					cfg := testConfig(geom[0], geom[1], geom[2], mode)
					cfg.Functional = false
					if got := allocsPerBcast(t, cfg, algo, size, false); got > 0 {
						t.Errorf("%s %s %dx%dx%d %d B: %.1f allocations per repeat broadcast, want 0",
							mode, algo, geom[0], geom[1], geom[2], size, got)
					}
				}
			}
		}
	}
}

// TestTreeBcastWaitsForLateRoot: a non-master root that enters a tree
// broadcast long after every other rank still broadcasts its payload. No
// rank may leave before the root has entered, and every rank must hold the
// root's bytes, in both vehicles. The root's node injector sends the
// payload, so it must wait for the root to publish it.
func TestTreeBcastWaitsForLateRoot(t *testing.T) {
	const msg, late = 48 << 10, sim.Millisecond
	for _, mode := range []hw.Mode{hw.Quad, hw.Dual} {
		cfg := testConfig(2, 2, 2, mode)
		for _, algo := range treeAlgosFor(mode) {
			for _, root := range []int{5, 6} {
				for _, reference := range []bool{false, true} {
					name := fmt.Sprintf("%v/%s/root %d/reference=%v", mode, algo, root, reference)
					w, err := mpi.NewWorld(cfg)
					if err != nil {
						t.Fatal(err)
					}
					w.Tunables.Bcast = algo
					w.M.K.SetNoProgram(reference)
					want := data.New(msg, true)
					want.Fill(29)
					var entered sim.Time
					var early, wrong int
					if _, err := w.RunProgram(func(r *mpi.Rank) {
						buf := r.NewBuf(msg)
						bcast := func() {
							if r.Rank() == root {
								buf.Fill(29)
								entered = r.Now()
							}
							r.BcastThen(buf, root, func() {
								if entered == 0 {
									early++
								}
								if !data.Equal(buf, want) {
									wrong++
								}
							})
						}
						if r.Rank() == root {
							r.Proc().SleepThen(late, bcast)
							return
						}
						bcast()
					}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if early > 0 || wrong > 0 {
						t.Errorf("%s: %d ranks left before the root entered at %v, %d do not hold its payload", name, early, late, wrong)
					}
				}
			}
		}
	}
}
