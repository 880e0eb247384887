package sim

import "testing"

// fanOut is a chain of fan-out counters: every stage, the source process
// carves the next stage's one-shot counter and fires the current one, and
// each of n waiters, released by the fire, waits again on the counter just
// carved. It is the shape of a collective-network broadcast, whose every
// chunk carves one delivery counter that thousands of ranks wait on, and of
// a ccmi schedule's per-call counters. Continuations are bound once per
// slot, so a warmed round allocates only what the kernel itself does.
type fanOut struct {
	k       *Kernel
	c       *Counter
	left    int // stages not yet fired
	waiters []fanWaiter
	driveFn func(*Proc)
	fireFn  func()
	source  *Proc
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
	f.c = f.k.NewCounter("stage")
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

func (f *fanOut) fire() {
	old := f.c
	f.left--
	f.c = nil
	if f.left > 0 {
		f.c = f.k.NewCounter("stage")
	}
	old.Fire()
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
	for _, bucket := range k.waitPool {
		for _, w := range bucket {
			n += cap(w)
		}
	}
	return n
}

// TestCounterWaiterStorageTracksLiveLists checks what a kernel retains: a
// chain of 64 per-stage counters with 300 waiters each, one waited on at a
// time, leaves about one list's worth of capacity in the pool and none in
// the slots. Reset keeps the pool, and a warmed chain — fire, re-carve,
// wait — allocates nothing.
func TestCounterWaiterStorageTracksLiveLists(t *testing.T) {
	const waiters, stages = 300, 64
	k := New()
	f := newFanOut(k, waiters)
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
	pooled := retainedCounterWaiterCap(k)
	k.Reset()
	if got := retainedCounterWaiterCap(k); got != pooled {
		t.Fatalf("Reset changed the retained waiter capacity from %d to %d", pooled, got)
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
	f.round(t, 64)
	for c, bucket := range k.waitPool {
		if len(bucket) > 0 {
			t.Fatalf("pool holds %d buffers of class %d after small lists only", len(bucket), c)
		}
	}
}

// TestCounterRearm pins the owner-only re-arm: a quiescent counter returns
// to a fresh counter's state under its new name and keeps its slot's waiter
// buffer; the arena carves nothing for it; pending waiters or a handle from
// before a Reset panic instead.
func TestCounterRearm(t *testing.T) {
	k := New()
	fp := func(c *Counter) string {
		f := &FP{}
		f.reset(k.Now())
		f.Counter(c)
		return string(f.buf)
	}
	c := k.NewCounterf("call%d.node%d", 1, 2)
	c.OnGE(3, nop)
	expectPanic(t, "counter call1.node2 re-armed with waiters pending", func() { c.Rearm("call%d.node%d", 2, 2) })
	c.Add(5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	kept := cap(c.waiters)
	carved := k.Counters()
	c.Rearm("call%d.node%d", 2, 2)
	if c.Value() != 0 || c.Name() != "call2.node2" {
		t.Fatalf("re-armed counter reads %d, %q; want 0, %q", c.Value(), c.Name(), "call2.node2")
	}
	if cap(c.waiters) != kept || kept == 0 {
		t.Fatalf("re-arm left a %d-entry waiter buffer, want the slot's %d", cap(c.waiters), kept)
	}
	if k.Counters() != carved {
		t.Fatalf("re-arm carved %d counters", k.Counters()-carved)
	}

	fresh := k.NewCounter("fresh")
	if fp(c) != fp(fresh) {
		t.Fatal("a re-armed counter fingerprints differently from a fresh one")
	}
	for _, x := range []*Counter{c, fresh} {
		x.Add(2)
		x.OnGE(7, nop)
	}
	if fp(c) != fp(fresh) {
		t.Fatal("a re-armed counter with a waiter fingerprints differently from a fresh one")
	}
	for _, x := range []*Counter{c, fresh} {
		x.Add(5)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	k.Reset()
	expectPanic(t, "counter handle (call2.node2) used across Kernel.Reset", func() { c.Rearm("call%d.node%d", 3, 2) })
}
