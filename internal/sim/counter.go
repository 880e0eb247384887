package sim

import (
	"math/bits"
	"sort"
)

// Counter is a watchable monotonically increasing value in virtual time, and
// the kernel's one wait primitive. It models both the DMA engine's hardware
// byte counters and the paper's software message counters: a producer adds
// received byte counts, consumers wait until the count reaches a threshold.
// A one-shot occurrence (a tree delivery, a barrier release, a request's
// completion) is a counter fired once from 0 to 1 (Fire) and waited on at
// threshold 1. Counters must not outlive a Kernel.Reset: stale handles panic
// via the epoch stamp.
type Counter struct {
	k       *Kernel
	name    label
	epoch   uint32
	fpID    uint32 // see fpGen; packed beside epoch so the label costs no size
	v       int64
	waiters []counterWait // kept sorted by threshold

	// fpGen/fpID intern this object into a steady-state fingerprint walk
	// (steady.go): when fpGen equals the walking capture's generation the
	// object is already labelled fpID; any other value means unseen. The
	// stamp lives on the object so a rack-scale capture interns millions of
	// objects with two word writes instead of a map insert.
	fpGen uint64
}

type counterWait struct {
	threshold int64
	e         entry
}

// counterKeep is the waiter capacity a counter keeps in its arena slot. A
// list that outgrows it borrows its storage from the kernel's pool
// (Kernel.waitPool) and returns it once the list empties or the slot is
// re-carved, so a slot does not pin the largest list it ever held. Smaller
// lists (a tree peer's, emptied on every chunk) stay in the slot and never
// touch the pool. The pool is bucketed by capacity class, so a growing list
// takes the smallest pooled buffer that fits rather than whatever was
// returned last.
const counterKeep = 4

// NewCounter returns a counter starting at zero, carved from the kernel's
// arena (see arena.go). Every field is reinitialized: after a Reset the slot
// still holds a previous run's state. A waiter buffer of at most counterKeep
// entries stays with the slot; a larger leftover goes back to the pool.
func (k *Kernel) NewCounter(name string) *Counter {
	return k.newCounter(plainLabel(name))
}

// NewCounterf is NewCounter with a lazily formatted name: the name renders
// as fmt.Sprintf(format, ops...) (at most two non-negative operands) only
// when shown, so per-call counters format nothing on the hot path.
func (k *Kernel) NewCounterf(format string, ops ...int32) *Counter {
	return k.newCounter(formatLabel(format, ops))
}

// Counters returns how many counters the kernel has carved since its last
// Reset: the arena's counter high-water for the run.
func (k *Kernel) Counters() int { return k.arena.nCounters }

func (k *Kernel) newCounter(name label) *Counter {
	c := k.arena.newCounter()
	c.k, c.name, c.epoch = k, name, k.epoch
	c.v = 0
	if cap(c.waiters) > counterKeep {
		k.putCounterWaiters(c.waiters)
		c.waiters = nil
	}
	c.waiters = c.waiters[:0]
	return c
}

// Rearm returns a counter its owner carved earlier in the current run to
// the state NewCounterf leaves a fresh one in, under the name
// fmt.Sprintf(format, ops...): value 0, no waiters. The slot keeps its
// waiter buffer, and the arena carves nothing, so a recycled per-call state
// holds one call's counters however many calls a run makes. A counter
// re-armed this way fingerprints exactly like a freshly carved one.
//
// Only the counter's owner may re-arm it, and only once the counter is
// quiescent: Rearm panics if waiters are pending or the handle predates the
// last Reset. An owner that outlives a run must drop its handles at the
// Reset (its slot may since belong to another owner, stamped with the new
// epoch) and carve afresh.
func (c *Counter) Rearm(format string, ops ...int32) {
	c.check()
	if len(c.waiters) > 0 {
		panic("sim: counter " + c.name.String() + " re-armed with waiters pending")
	}
	c.name, c.v = formatLabel(format, ops), 0
}

// check panics when the handle predates the kernel's current epoch.
func (c *Counter) check() {
	if c.epoch != c.k.epoch {
		panic("sim: counter handle (" + c.name.String() + ") used across Kernel.Reset")
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Name returns the counter's name.
func (c *Counter) Name() string { return c.name.String() }

// Add increases the counter by n (n must be non-negative; the structures the
// counter models only count up) and releases any waiters whose threshold is
// now reached.
func (c *Counter) Add(n int64) {
	c.check()
	if n < 0 {
		panic("sim: counter " + c.name.String() + " decremented")
	}
	c.v += n
	c.release()
}

// Fire adds 1 to a counter still at 0: the one-shot use of a counter.
// Firing a counter at any other value panics (a second Fire, or a Fire
// after Add): it always indicates a protocol bug.
func (c *Counter) Fire() {
	c.check()
	if c.v != 0 {
		panic("sim: counter " + c.name.String() + " fired twice")
	}
	c.v = 1
	c.release()
}

// Fired reports whether the counter has reached 1: for a one-shot counter,
// whether it has fired.
func (c *Counter) Fired() bool { return c.v >= 1 }

// RunPost implements PostHandler, so HookAt(t, c, 0, 0) schedules c.Fire
// at t without a method-value closure.
//
//bgplint:hot
func (c *Counter) RunPost(_, _ int64) { c.Fire() }

// wait inserts a waiter in threshold order, after every waiter with an
// equal threshold, so ties release in registration order. A threshold no
// lower than the last one appends without a search: a one-shot counter's
// fan-out, where every waiter waits at 1, is all appends.
func (c *Counter) wait(threshold int64, e entry) {
	n := len(c.waiters)
	switch {
	case cap(c.waiters) == 0:
		c.waiters = c.k.takeCounterWaiters()
	case n == cap(c.waiters) && n >= counterKeep:
		c.waiters = c.k.growCounterWaiters(c.waiters)
	}
	w := counterWait{threshold: threshold, e: e}
	if n == 0 || c.waiters[n-1].threshold <= threshold {
		c.waiters = append(c.waiters, w)
		return
	}
	i := sort.Search(n, func(i int) bool {
		return c.waiters[i].threshold > threshold
	})
	c.waiters = append(c.waiters, counterWait{})
	copy(c.waiters[i+1:], c.waiters[i:])
	c.waiters[i] = w
}

func (c *Counter) release() {
	n := 0
	for n < len(c.waiters) && c.waiters[n].threshold <= c.v {
		n++
	}
	if n == 0 {
		return
	}
	k := c.k
	if n == 1 {
		k.wake(c.waiters[0].e)
	} else {
		// A threshold crossing that releases several waiters at one instant
		// wakes them as a single run-ring batch: one capacity check, then
		// each entry written straight into the ring in threshold order
		// (ties in registration order — the same order wake-by-wake pushes
		// would have produced).
		r := &k.ring
		r.reserve(n)
		buf, t, mask := r.buf, r.tail, len(r.buf)-1
		for _, w := range c.waiters[:n] {
			if w.e.parked() {
				k.blocked--
			}
			buf[t] = w.e
			t = (t + 1) & mask
		}
		r.tail = t
		r.n += n
	}
	// Compact in place rather than re-slicing the front away: waking repeatedly
	// would otherwise shrink capacity to zero and reallocate on every wait.
	// counterWait is pointer-free, so the vacated tail needs no clearing.
	rem := copy(c.waiters, c.waiters[n:])
	c.waiters = c.waiters[:rem]
	if rem == 0 && cap(c.waiters) > counterKeep {
		k.putCounterWaiters(c.waiters)
		c.waiters = nil
	}
}

// growCounterWaiters moves a full waiter list past counterKeep entries into
// a larger buffer: the smallest pooled one with room, else a new one of
// twice the size. The buffer the list leaves behind goes to the pool, where
// the next list to reach or outgrow its size finds it.
func (k *Kernel) growCounterWaiters(w []counterWait) []counterWait {
	var grown []counterWait
	for c := bits.Len(uint(len(w))); c < len(k.waitPool); c++ {
		if m := len(k.waitPool[c]); m > 0 {
			grown = k.waitPool[c][m-1]
			k.waitPool[c][m-1] = nil
			k.waitPool[c] = k.waitPool[c][:m-1]
			break
		}
	}
	if grown == nil {
		grown = make([]counterWait, 0, 2*len(w))
	}
	grown = append(grown, w...)
	k.putCounterWaiters(w)
	return grown
}

// takeCounterWaiters gives a counter without a buffer the largest pooled
// one of at most counterKeep entries: the one a list left behind when it
// outgrew its slot. It returns nil, for append to allocate, when there is
// none.
func (k *Kernel) takeCounterWaiters() []counterWait {
	for c := min(bits.Len(counterKeep)-1, len(k.waitPool)-1); c >= 0; c-- {
		if m := len(k.waitPool[c]); m > 0 {
			w := k.waitPool[c][m-1]
			k.waitPool[c][m-1] = nil
			k.waitPool[c] = k.waitPool[c][:m-1]
			return w
		}
	}
	return nil
}

// putCounterWaiters returns a counter waiter buffer, emptied, to the pool
// bucket of its capacity class: bucket c holds buffers of capacity in
// [2^c, 2^(c+1)).
func (k *Kernel) putCounterWaiters(w []counterWait) {
	c := bits.Len(uint(cap(w))) - 1
	for len(k.waitPool) <= c {
		k.waitPool = append(k.waitPool, nil)
	}
	k.waitPool[c] = append(k.waitPool[c], w[:0])
}

// OnGE schedules fn once the counter reaches at least v. If it already has,
// fn is scheduled at the current time.
func (c *Counter) OnGE(v int64, fn func()) { c.OnGEHook(v, fnHook(fn), 0, 0) }

// OnGEHook is the closure-free OnGE: h.RunPost(a, b) is scheduled once the
// counter reaches at least v, at exactly the (time, seq) position OnGE's
// callback would take.
//
//bgplint:hot
func (c *Counter) OnGEHook(v int64, h PostHandler, a, b int64) {
	c.check()
	if c.v >= v {
		c.k.HookAt(c.k.now, h, a, b)
		return
	}
	c.wait(v, entry{kind: eHook, idx: c.k.hooks.put(postHook{h, a, b})})
}
