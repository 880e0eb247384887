package sim

// Event is a one-shot occurrence in virtual time. Processes block on it with
// Proc.WaitThen; callbacks subscribe with OnFire. Firing an event releases all
// current and future waiters. Events are not reusable; allocate a new one per
// occurrence — and not retainable across Kernel.Reset: the epoch stamp makes
// a stale handle panic instead of aliasing whatever now occupies its slot.
type Event struct {
	k       *Kernel
	name    label
	epoch   uint32
	fpID    uint32 // see fpGen; packed beside epoch
	fired   bool
	waiters []entry // parked process resumes (WaitThen) and callbacks (OnFire)

	// fpGen/fpID intern this object into a steady-state fingerprint walk
	// (steady.go): when fpGen equals the walking capture's generation the
	// object is already labelled fpID; any other value means unseen. The
	// stamp lives on the object so a rack-scale capture interns millions of
	// objects with two word writes instead of a map insert.
	fpGen uint64
}

// NewEvent returns an unfired event, carved from the kernel's arena (see
// arena.go). The name appears in deadlock reports. Every field is
// reinitialized here: after a Reset the slot still holds a previous run's
// state. Waiter storage is not kept per slot: a fired event holds none, and
// the buffer a never-fired event left behind goes back to the kernel's pool
// (Kernel.waitFree), so a slot does not pin the largest list it ever held.
func (k *Kernel) NewEvent(name string) *Event {
	return k.newEvent(plainLabel(name))
}

// NewEventf is NewEvent with a lazily formatted name (see
// Kernel.NewCounterf): per-chunk and per-call events format nothing unless a
// report shows them.
func (k *Kernel) NewEventf(format string, ops ...int32) *Event {
	return k.newEvent(formatLabel(format, ops))
}

func (k *Kernel) newEvent(name label) *Event {
	e := k.arena.newEvent()
	e.k, e.name, e.epoch = k, name, k.epoch
	e.fired = false
	if cap(e.waiters) > 0 {
		k.putWaiters(e.waiters)
		e.waiters = nil
	}
	return e
}

// addWaiter appends w to the waiter list. The first waiter on an event
// without a buffer takes one from the kernel's pool, so a warmed kernel's
// fan-out grows no list.
//
//bgplint:hot
func (e *Event) addWaiter(w entry) {
	if cap(e.waiters) == 0 {
		e.waiters = e.k.takeWaiters(0)
	}
	e.waiters = append(e.waiters, w)
}

// check panics when the handle predates the kernel's current epoch: its slab
// slot belongs to the next lease now (or will shortly).
func (e *Event) check() {
	if e.epoch != e.k.epoch {
		panic("sim: event handle (" + e.name.String() + ") used across Kernel.Reset")
	}
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Reserve grows the waiter list's capacity to at least n. Callers that know
// the subscriber count up front (a barrier event takes one waiter per rank)
// use it to replace log2(n) doubling copies with one exact buffer: the
// pool's top buffer when it is large enough, else a fresh one. A smaller
// pooled buffer stays in the pool for the events that fit it, and a smaller
// buffer the event already held goes back there.
func (e *Event) Reserve(n int) {
	e.check()
	if cap(e.waiters) >= n {
		return
	}
	w := e.k.takeWaiters(n)
	if w == nil {
		w = make([]entry, 0, n)
	}
	w = append(w, e.waiters...)
	if cap(e.waiters) > 0 {
		e.k.putWaiters(e.waiters)
	}
	e.waiters = w
}

// Fire marks the event fired and schedules all waiters at the current virtual
// time. Firing twice panics: it always indicates a protocol bug.
//
// The waiters are released as one run-ring batch: the blocked bookkeeping
// (normally done per-entry in Kernel.wake) runs first, then the whole slice
// is appended to the ring in a single copy, preserving registration order.
// The emptied buffer then goes back to the kernel's pool: a fired event
// takes no further waiters (OnFire schedules directly), so it keeps none.
func (e *Event) Fire() {
	e.check()
	if e.fired {
		panic("sim: event " + e.name.String() + " fired twice")
	}
	e.fired = true
	ws := e.waiters
	if cap(ws) == 0 {
		return
	}
	e.waiters = nil
	k := e.k
	for _, w := range ws {
		if w.parked() {
			p := k.procAt(w.idx)
			k.blocked--
			p.waitEv, p.waitC = nil, nil
		}
	}
	k.ring.pushBatch(ws)
	k.putWaiters(ws)
}

// RunPost implements PostHandler, so HookAt(t, e, 0, 0) schedules e.Fire
// at t without a method-value closure.
//
//bgplint:hot
func (e *Event) RunPost(_, _ int64) { e.Fire() }

// OnFire registers fn to run when the event fires. If the event has already
// fired, fn is scheduled at the current time.
func (e *Event) OnFire(fn func()) {
	e.check()
	if e.fired {
		e.k.At(e.k.now, fn)
		return
	}
	e.addWaiter(entry{kind: eFn, idx: e.k.newCb(fn)})
}
