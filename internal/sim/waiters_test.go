package sim

import "testing"

// fanOut is a chain of fan-out events: every stage, the source process
// carves the next stage's event and fires the current one, and each of n
// waiters, released by the fire, waits again on the event just carved. It
// is the shape of a collective-network broadcast, whose every chunk carves
// one event that thousands of ranks wait on. Continuations are bound once
// per slot, so a warmed round allocates only what the kernel itself does.
//
// With counters set, each stage is a counter instead, carved per stage and
// released by one Add, the shape of a ccmi schedule's per-call counters.
type fanOut struct {
	k        *Kernel
	ev       *Event
	c        *Counter
	counters bool
	left     int // stages not yet fired
	waiters  []fanWaiter
	driveFn  func(*Proc)
	fireFn   func()
	source   *Proc
}

type fanWaiter struct {
	f       *fanOut
	p       *Proc
	startFn func(*Proc)
	waitFn  func()
}

func newFanOut(k *Kernel, n int) *fanOut {
	f := &fanOut{k: k, waiters: make([]fanWaiter, n)}
	f.driveFn, f.fireFn = f.drive, f.fire
	for i := range f.waiters {
		w := &f.waiters[i]
		w.f = f
		w.startFn, w.waitFn = w.start, w.wait
	}
	return f
}

// round runs stages fan-out stages on a freshly Reset kernel.
func (f *fanOut) round(t testing.TB, stages int) {
	f.k.Reset()
	f.left = stages
	f.carve()
	for i := range f.waiters {
		f.k.SpawnProgramIdx("waiter%d", int32(i), f.waiters[i].startFn)
	}
	f.k.SpawnProgram("source", f.driveFn)
	if err := f.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func (f *fanOut) drive(p *Proc) {
	f.source = p
	p.SleepThen(1, f.fireFn)
}

// carve makes the next stage's event or counter.
func (f *fanOut) carve() {
	if f.counters {
		f.c = f.k.NewCounter("stage")
	} else {
		f.ev = f.k.NewEvent("stage")
	}
}

func (f *fanOut) fire() {
	oldEv, oldC := f.ev, f.c
	f.left--
	f.ev, f.c = nil, nil
	if f.left > 0 {
		f.carve()
	}
	if oldC != nil {
		oldC.Add(1)
	} else {
		oldEv.Fire()
	}
	if f.left > 0 {
		f.source.SleepThen(1, f.fireFn)
	}
}

func (w *fanWaiter) start(p *Proc) {
	w.p = p
	w.wait()
}

func (w *fanWaiter) wait() {
	if c := w.f.c; c != nil {
		w.p.WaitGEThen(c, 1, w.waitFn)
	} else if ev := w.f.ev; ev != nil {
		w.p.WaitThen(ev, w.waitFn)
	}
}

// retainedWaiterCap sums the waiter capacity k holds: every carved-or-not
// event slot's list plus the pooled buffers.
func retainedWaiterCap(k *Kernel) int {
	n := 0
	for _, slab := range k.arena.events {
		for i := range slab {
			n += cap(slab[i].waiters)
		}
	}
	for _, w := range k.waitFree {
		n += cap(w)
	}
	return n
}

// TestFanOutWaitersAllocationFree pins the pooled waiter storage's steady
// state: on a warmed kernel a fan-out chain — fire, re-carve, wait —
// allocates nothing.
func TestFanOutWaitersAllocationFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	f := newFanOut(New(), 300)
	f.round(t, 40)
	if got := testing.AllocsPerRun(5, func() { f.round(t, 40) }); got > 0 {
		t.Fatalf("warmed fan-out round: %.1f allocations, want 0", got)
	}
}

// TestWaiterStorageTracksLiveEvents checks what a kernel retains: a chain
// of 64 fan-out events with 300 waiters each, one live at a time, leaves
// one buffer's worth of waiter capacity, not one per carved slot, and no
// fired event keeps a buffer. Reset keeps the pool.
func TestWaiterStorageTracksLiveEvents(t *testing.T) {
	const waiters, stages = 300, 64
	k := New()
	f := newFanOut(k, waiters)
	f.round(t, stages)
	if got := retainedWaiterCap(k); got > 2*waiters {
		t.Fatalf("retained %d waiter entries after %d stages of %d waiters, want at most %d",
			got, stages, waiters, 2*waiters)
	}
	for _, slab := range k.arena.events {
		for i := range slab[:min(len(slab), k.arena.nEvents)] {
			if e := &slab[i]; e.fired && cap(e.waiters) != 0 {
				t.Fatalf("fired event slot %d keeps a %d-entry buffer", i, cap(e.waiters))
			}
		}
	}
	pooled := len(k.waitFree)
	k.Reset()
	if len(k.waitFree) != pooled {
		t.Fatalf("Reset changed the waiter pool from %d to %d buffers", pooled, len(k.waitFree))
	}
}

// TestReserveKeepsSmallerPooledBuffer checks Reserve's pool discipline: a
// sized request takes the top buffer only when it fits, so a barrier's
// exact reservation does not consume the small buffer the next unsized
// event reuses; a fired reservation feeds later sized requests; and a
// never-fired event's buffer is pooled when its slot is re-carved.
func TestReserveKeepsSmallerPooledBuffer(t *testing.T) {
	k := New()
	a := k.NewEvent("a")
	for i := 0; i < 3; i++ {
		a.OnFire(nop)
	}
	a.Fire()
	if len(k.waitFree) != 1 {
		t.Fatalf("pool holds %d buffers after one fire, want 1", len(k.waitFree))
	}
	small := cap(k.waitFree[0])

	b := k.NewEvent("barrier")
	b.Reserve(100)
	if cap(b.waiters) < 100 || len(k.waitFree) != 1 {
		t.Fatalf("Reserve(100): cap %d, pool %d buffers; want a fresh buffer and the small one kept",
			cap(b.waiters), len(k.waitFree))
	}
	c := k.NewEvent("c")
	c.OnFire(nop)
	if cap(c.waiters) != small || len(k.waitFree) != 0 {
		t.Fatalf("first waiter took a %d-entry buffer (pool %d), want the pooled %d-entry one",
			cap(c.waiters), len(k.waitFree), small)
	}
	b.Fire()
	d := k.NewEvent("d")
	d.Reserve(50)
	if cap(d.waiters) < 100 || len(k.waitFree) != 0 {
		t.Fatalf("Reserve(50) after the barrier fired: cap %d, pool %d; want the barrier's buffer",
			cap(d.waiters), len(k.waitFree))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	// c and d never fired; re-carving their slots pools their buffers.
	k.Reset()
	for i := 0; i < 4; i++ {
		k.NewEvent("again")
	}
	if len(k.waitFree) != 2 {
		t.Fatalf("re-carving two never-fired slots pooled %d buffers, want 2", len(k.waitFree))
	}
}

// retainedCounterWaiterCap sums the counter waiter capacity k holds: every
// counter slot's list plus the pooled buffers.
func retainedCounterWaiterCap(k *Kernel) int {
	n := 0
	for _, slab := range k.arena.counters {
		for i := range slab {
			n += cap(slab[i].waiters)
		}
	}
	for _, bucket := range k.cwaitFree {
		for _, w := range bucket {
			n += cap(w)
		}
	}
	return n
}

// TestCounterWaiterStorageTracksLiveLists is TestWaiterStorageTracksLiveEvents
// for counters: a chain of 64 per-stage counters with 300 waiters each, one
// waited on at a time, leaves about one list's worth of capacity in the
// pool and none in the slots, and a warmed chain allocates nothing.
func TestCounterWaiterStorageTracksLiveLists(t *testing.T) {
	const waiters, stages = 300, 64
	k := New()
	f := newFanOut(k, waiters)
	f.counters = true
	f.round(t, stages)
	if got := retainedCounterWaiterCap(k); got > 4*waiters {
		t.Fatalf("retained %d counter waiter entries after %d stages of %d waiters, want at most %d",
			got, stages, waiters, 4*waiters)
	}
	for _, slab := range k.arena.counters {
		for i := range slab[:min(len(slab), k.arena.nCounters)] {
			if c := &slab[i]; cap(c.waiters) > counterKeep {
				t.Fatalf("counter slot %d keeps a %d-entry buffer", i, cap(c.waiters))
			}
		}
	}
	if testing.CoverMode() == "" {
		if got := testing.AllocsPerRun(5, func() { f.round(t, stages) }); got > 0 {
			t.Fatalf("warmed counter fan-out round: %.1f allocations, want 0", got)
		}
	}
}

// TestSmallCounterListsStayInSlot: a counter whose list never outgrows
// counterKeep, emptied over and over like a tree peer's, keeps its buffer
// and never touches the pool.
func TestSmallCounterListsStayInSlot(t *testing.T) {
	k := New()
	f := newFanOut(k, counterKeep-1)
	f.counters = true
	f.round(t, 64)
	for c, bucket := range k.cwaitFree {
		if len(bucket) > 0 {
			t.Fatalf("pool holds %d buffers of class %d after small lists only", len(bucket), c)
		}
	}
}
