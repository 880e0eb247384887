package sim

import "sort"

// Counter is a watchable monotonically increasing value in virtual time. It
// models both the DMA engine's hardware byte counters and the paper's
// software message counters: a producer adds received byte counts, consumers
// wait until the count reaches a threshold. Like events, counters must not
// outlive a Kernel.Reset: stale handles panic via the epoch stamp.
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

// NewCounter returns a counter starting at zero, carved from the kernel's
// arena (see arena.go). Every field is reinitialized: after a Reset the slot
// still holds a previous run's state (the waiter slice keeps its capacity).
func (k *Kernel) NewCounter(name string) *Counter {
	return k.newCounter(plainLabel(name))
}

// NewCounterf is NewCounter with a lazily formatted name: the name renders
// as fmt.Sprintf(format, ops...) (at most two non-negative operands) only
// when shown, so per-call counters format nothing on the hot path.
func (k *Kernel) NewCounterf(format string, ops ...int32) *Counter {
	return k.newCounter(formatLabel(format, ops))
}

func (k *Kernel) newCounter(name label) *Counter {
	c := k.arena.newCounter()
	c.k, c.name, c.epoch = k, name, k.epoch
	c.v = 0
	c.waiters = c.waiters[:0]
	return c
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

// Reset sets the counter back to zero for reuse by a subsequent operation.
// Resetting with waiters outstanding panics: the waiters' thresholds would
// silently refer to the previous epoch.
func (c *Counter) Reset() {
	c.check()
	if len(c.waiters) > 0 {
		panic("sim: counter " + c.name.String() + " reset with waiters")
	}
	c.v = 0
}

func (c *Counter) wait(threshold int64, e entry) {
	i := sort.Search(len(c.waiters), func(i int) bool {
		return c.waiters[i].threshold > threshold
	})
	c.waiters = append(c.waiters, counterWait{})
	copy(c.waiters[i+1:], c.waiters[i:])
	c.waiters[i] = counterWait{threshold: threshold, e: e}
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
		// wakes them as a single run-ring batch: the per-waiter blocked
		// bookkeeping runs first, then one bulk append in threshold order
		// (ties in registration order — the same order wake-by-wake pushes
		// would have produced).
		buf := k.arena.wakeBuf[:0]
		for _, w := range c.waiters[:n] {
			if w.e.parked() {
				p := k.procAt(w.e.idx)
				k.blocked--
				p.waitEv, p.waitC = nil, nil
			}
			buf = append(buf, w.e)
		}
		k.ring.pushBatch(buf)
		k.arena.wakeBuf = buf[:0]
	}
	// Compact in place rather than re-slicing the front away: waking repeatedly
	// would otherwise shrink capacity to zero and reallocate on every wait.
	// counterWait is pointer-free, so the vacated tail needs no clearing.
	rem := copy(c.waiters, c.waiters[n:])
	c.waiters = c.waiters[:rem]
}

// OnGE schedules fn once the counter reaches at least v. If it already has,
// fn is scheduled at the current time.
func (c *Counter) OnGE(v int64, fn func()) {
	c.check()
	if c.v >= v {
		c.k.At(c.k.now, fn)
		return
	}
	c.wait(v, entry{kind: eFn, idx: c.k.newCb(fn)})
}

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
	c.wait(v, entry{kind: eHook, idx: c.k.newHook(h, a, b)})
}
