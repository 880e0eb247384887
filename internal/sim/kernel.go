package sim

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// entry is one schedulable unit, encoded without pointers so the run ring,
// the event queue, and every waiter list are memory the GC never has to scan.
// kind selects the dispatch and idx names the target: a process's dense arena
// index (eProc), or a slot in the kernel's add table (eAdd) or hook table
// (eHook).
//
// In a waiter list (Counter.waiters) an eProc entry is a parked process, so
// Kernel.wake and the batch-wake loop do the blocked bookkeeping exactly for
// that kind.
type entry struct {
	kind uint8
	idx  uint32
}

// parked reports whether a released waiter entry resumes a blocked process
// (as opposed to running a hook).
func (e entry) parked() bool { return e.kind == eProc }

// entry kinds. The zero value (eNone) is never scheduled; popping one would
// indicate ring/queue corruption.
const (
	eNone uint8 = iota
	eProc       // run process idx: step its table, or resume it (Proc.run)
	eAdd        // apply add-table slot idx: a scheduled Counter.Add (AddAt)
	eHook       // run hook-table slot idx: At, OnGE, HookAt or OnGEHook
)

// Kernel is a deterministic discrete-event scheduler. The zero value is not
// usable; create kernels with New.
type Kernel struct {
	now   Time
	queue radixQueue
	ring  runRing

	// sched returns the virtual CPU to the scheduler loop: a goroutine
	// process sends here when it parks or finishes, and Run receives once
	// per resume it hands out.
	sched chan struct{}

	// cur is the process whose continuation or table next() is running on
	// its behalf, nil between dispatches. A panic escaping next() while cur
	// is set is that process's panic (see recoverNext), and the shared start
	// continuation runs cur's body (startFn).
	cur *Proc

	// adds and hooks are the kernel's side tables: an eAdd or eHook entry
	// names a slot instead of carrying its payload, keeping queue memory
	// pointer-free. adds holds scheduled (counter, amount) pairs (AddAt), so
	// a deferred Counter.Add costs no closure; hooks holds (handler, a, b)
	// triples from HookAt and OnGEHook, and the closures of At and OnGE as
	// fnHook handlers. Adds keep a table of their own: an add's 16-byte slot
	// would take a 32-byte hook slot, and the tree broadcasts keep thousands
	// of adds pending at once.
	adds  slots[addAt]
	hooks slots[postHook]

	// procs lists every live process by dense arena index; each tracks its
	// own registry position (Proc.idx) for O(1) removal. blocked counts
	// processes currently waiting on a Counter threshold (not a timed
	// sleep). If all events drain while blocked > 0 the simulation is
	// deadlocked.
	procs   []uint32
	blocked int

	// goSlots holds the goroutine-only state of process slots, indexed
	// like the arena and grown only by goroutine spawns (proc.go).
	goSlots []goSlot

	// startFn is the kernel's bound start continuation: the first
	// activation of every program process (SpawnProgramIdx), bound once.
	startFn func()

	failure error

	// arena holds the kernel's slab allocator for counters and processes
	// (see arena.go). Everything carved from it lives exactly as long as
	// the kernel — or until Reset rewinds it.
	arena arena

	// waitPool pools the counter waiter buffers that outgrew a slot's own
	// counterKeep entries (see Counter.wait), one LIFO bucket per capacity
	// class. Storage tracks the lists waited on at once, not every slot a
	// run ever carved; entries are pointer-free, so only the headers are
	// scanned.
	waitPool [][][]counterWait

	running bool

	// noProgram makes SpawnProgram fall back to goroutine-backed processes
	// (see program.go): the same process bodies park their goroutines
	// instead of running as queue callbacks, and their tables run step by
	// step — the reference mode the determinism stress tests and the CI
	// program-vs-reference bench compare against.
	noProgram bool

	// pipes registers every pipe created on this kernel so Reset can rewind
	// their reservation state along with the clock.
	pipes []*Pipe

	// epoch counts Resets. Counters and processes are stamped with
	// the epoch they were carved in; using a handle from a previous epoch
	// panics deterministically instead of corrupting the next run (the slab
	// slot may already belong to someone else).
	epoch uint32

	// pipeEpoch counts ReleasePipes calls (see PipeEpoch).
	pipeEpoch uint32

	// dispatched counts the entries next() has popped since the last Reset
	// (see Dispatched).
	dispatched int64
}

// New returns a kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{sched: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// SetNoProgram toggles the goroutine-backed reference mode for SpawnProgram
// (see program.go). It must be called before any process is spawned; the two
// modes produce bit-identical event orderings, so this exists for the
// determinism stress tests and the program-vs-reference benchmark runs.
func (k *Kernel) SetNoProgram(v bool) { k.noProgram = v }

// Reset returns the kernel to its post-New state while keeping every
// allocation it has accumulated: arena slabs, queue and ring capacity, the
// add and hook tables, the pooled waiter buffers (waitPool), and the pipes
// created on it. Pipes survive with their identity intact (their
// reservation state rewinds to zero); counters and processes do not —
// their slab slots will be recarved, so handles from before the Reset are
// poison, and the epoch stamp makes using one panic deterministically.
//
// Reset panics if called during Run, while processes are still live, or
// after a failed run: a failed run (deadlock, process or callback panic) may
// leave parked processes or half-applied state behind, and reusing such a
// kernel would replay unrelated state into the next run. Only kernels whose
// last Run completed cleanly are resettable; drop the rest.
func (k *Kernel) Reset() {
	if k.running {
		panic("sim: Reset during Run")
	}
	if len(k.procs) > 0 || k.blocked != 0 {
		panic("sim: Reset with live processes; only a cleanly finished kernel can be reset")
	}
	if k.failure != nil {
		panic("sim: Reset of a failed kernel; only a cleanly finished kernel can be reset")
	}
	k.now = 0
	k.dispatched = 0
	k.queue.reset()
	k.ring.head, k.ring.tail, k.ring.n = 0, 0, 0
	k.cur = nil
	k.adds.reset()
	k.hooks.reset()
	k.arena.reset()
	for _, p := range k.pipes {
		p.free, p.totalBytes, p.busy, p.transfers = 0, 0, 0, 0
	}
	k.epoch++
}

// addAt is one scheduled counter add: the pointer-lean form of
// At(t, func() { c.Add(n) }), stored in the kernel's add table so the hot
// DMA-completion paths schedule no closures.
type addAt struct {
	c *Counter
	n int64
}

// procAt resolves a dense process index.
func (k *Kernel) procAt(i uint32) *Proc { return k.arena.procAt(i) }

// At schedules fn to run at absolute virtual time t.
// Scheduling in the past panics: it indicates a broken cost model rather
// than a recoverable state.
func (k *Kernel) At(t Time, fn func()) { k.HookAt(t, fnHook(fn), 0, 0) }

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// AddAt schedules c.Add(n) at absolute virtual time t, occupying exactly the
// (time, seq) position the equivalent At callback would. Like At, scheduling
// in the past panics; like every counter operation, a handle from before a
// Reset panics at registration.
//
//bgplint:hot
func (k *Kernel) AddAt(t Time, c *Counter, n int64) {
	c.check()
	i := k.adds.put(addAt{c, n})
	if t <= k.now {
		if t < k.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
		}
		k.ring.push(entry{kind: eAdd, idx: i})
		return
	}
	k.queue.push(t, entry{kind: eAdd, idx: i})
}

// PostHandler is the closure-free callback of HookAt and Counter.OnGEHook,
// for high-volume paths: one handler object bound once, two integer
// operands, no allocation per event beyond its table slot.
type PostHandler interface {
	RunPost(a, b int64)
}

// postHook is one scheduled hook — a HookAt or OnGEHook: handler object plus
// two integer operands, so high-volume traffic carries no closures.
type postHook struct {
	h    PostHandler
	a, b int64
}

// fnHook is a closure as a PostHandler: At and OnGE schedule their closures
// as hooks. A func value is pointer-shaped, so the conversion allocates
// nothing.
type fnHook func()

func (f fnHook) RunPost(_, _ int64) { f() }

// HookAt schedules h.RunPost(a, b) at absolute virtual time t, occupying
// exactly the (time, seq) position the equivalent At callback would: the
// closure-free At. Handlers are bound once and the operands
// carry the per-event identity, so a per-chunk schedule allocates nothing.
// Like At, scheduling in the past panics.
//
//bgplint:hot
func (k *Kernel) HookAt(t Time, h PostHandler, a, b int64) {
	if t <= k.now {
		if t < k.now {
			panic(fmt.Sprintf("sim: schedule at %v before now %v", t, k.now))
		}
		k.ring.push(entry{kind: eHook, idx: k.hooks.put(postHook{h, a, b})})
		return
	}
	k.queue.push(t, entry{kind: eHook, idx: k.hooks.put(postHook{h, a, b})})
}

// Hooks returns the hook table's high-water since the last Reset: the most
// At, OnGE, HookAt and OnGEHook registrations pending at once, as Counters
// is the arena's counter high-water.
func (k *Kernel) Hooks() int { return len(k.hooks.s) }

// slots is a side table of queue-entry payloads. Slots recycle LIFO through
// free, so the mapping from schedule order to slot numbers is a pure
// function of the run, fresh or reused.
type slots[T any] struct {
	s    []T
	free []uint32
}

// put stores v in a slot and returns its number.
//
//bgplint:hot
func (t *slots[T]) put(v T) uint32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.s[i] = v
		return i
	}
	t.s = append(t.s, v)
	return uint32(len(t.s) - 1)
}

// take returns slot i's payload and releases the slot first, so the table
// holds no reference while (and after) the payload runs.
//
//bgplint:hot
func (t *slots[T]) take(i uint32) T {
	v := t.s[i]
	var zero T
	t.s[i] = zero
	t.free = append(t.free, i)
	return v
}

// reset empties the table, keeping its capacity. Slots are cleared, since a
// closure's captures would otherwise keep the previous run's garbage alive
// for the whole next lease.
func (t *slots[T]) reset() {
	clear(t.s)
	t.s = t.s[:0]
	t.free = t.free[:0]
}

// wake makes a released waiter runnable at the current instant. The blocked
// count drops here, from the entry's kind alone, so a release never loads
// the woken process; its waitC is cleared when it next runs (Proc.run,
// park). The caller (Counter.release) always holds the token.
//
//bgplint:hot
func (k *Kernel) wake(w entry) {
	if w.parked() {
		k.blocked--
	}
	k.ring.push(w)
}

// next drives the scheduler: it pops entries in exact (time, seq) order,
// runs hooks, adds and inline processes in place, advances the clock when
// the current instant is exhausted, and returns the first goroutine process
// whose eProc entry came up. nil means no runnable work remains (queues
// drained, or the simulation failed). Only Run's loop calls it, so every
// hook and inline step runs on the goroutine that called Run.
//
//bgplint:hot
func (k *Kernel) next() *Proc {
	for k.failure == nil {
		// Queue entries at the current instant predate (in seq order) every
		// ring entry, so they run first; otherwise the FIFO ring drains
		// before the clock may advance to the queue's next instant.
		var e entry
		if k.queue.ready() {
			e = k.queue.pop()
		} else if !k.ring.empty() {
			e = k.ring.pop()
		} else if k.queue.advance() {
			k.now = k.queue.last
			e = k.queue.pop()
		} else {
			break
		}
		k.dispatched++
		switch e.kind {
		case eProc:
			p := k.procAt(e.idx)
			if !p.inline {
				return p // a goroutine process runs its continuation itself
			}
			k.cur = p
			p.run()
			k.cur = nil
		case eAdd:
			a := k.adds.take(e.idx)
			a.c.Add(a.n)
		case eHook:
			hk := k.hooks.take(e.idx)
			hk.h.RunPost(hk.a, hk.b)
		}
	}
	return nil
}

// Dispatched returns how many entries the kernel has run since its last
// Reset: hooks, scheduled adds, process resumes and table steps.
// It is the kernel-dispatch layer's work count, which stays put when a
// change removes bookkeeping without moving any virtual time.
func (k *Kernel) Dispatched() int64 { return k.dispatched }

// recoverNext is the one recover frame around next(), deferred by Run's
// loop. Code next() runs on an inline process's behalf (k.cur) fails the run
// as that process's panic, the error a goroutine body's panic produces. Any
// other panic came from a hook or a scheduled add (eHook, eAdd): the
// simulation fails and the panic continues out of Run with its original
// value.
func (k *Kernel) recoverNext() {
	r := recover()
	if r == nil {
		return
	}
	p := k.cur
	k.cur = nil
	if p == nil {
		k.fail(fmt.Errorf("sim: callback panicked: %v", r))
		panic(r)
	}
	k.fail(procPanicError(p.Name(), r))
}

// fail records a fatal simulation error (process panic).
func (k *Kernel) fail(err error) {
	if k.failure == nil {
		k.failure = err
	}
}

// Run executes events until the queues drain or a process fails. It returns
// an error if a process panicked or if processes remain blocked with no
// pending events (virtual deadlock). A panicking callback panics out of Run
// after marking the kernel failed.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	k.running = true
	defer func() {
		k.running = false
		// A failed or deadlocked run, or one a callback panic escapes,
		// leaves a dead kernel: end its parked process goroutines.
		if k.failure != nil || k.blocked > 0 {
			k.releaseGoroutines()
		}
	}()

	k.loop()
	if k.failure != nil {
		return k.failure
	}
	if k.blocked > 0 {
		return k.deadlockError()
	}
	return nil
}

// loop is Run's scheduler loop: dispatch until no process is due, handing
// the virtual CPU to each goroutine process next() returns and parking until
// that process parks again or finishes.
func (k *Kernel) loop() {
	defer k.recoverNext()
	for k.failure == nil {
		p := k.next()
		if p == nil {
			return
		}
		k.goSlot(p).gate <- struct{}{}
		<-k.sched
	}
}

func (k *Kernel) deadlockError() error {
	// Sort the report so the error text does not depend on discovery order
	// (determinism tests compare failure output across all kernel modes).
	var blocked []string
	for _, pi := range k.procs {
		p := k.procAt(pi)
		if what := p.blockedOn(); what != "" {
			blocked = append(blocked, fmt.Sprintf("%s(%s)", p.Name(), what))
		}
	}
	sort.Strings(blocked)
	return fmt.Errorf("sim: deadlock, blocked processes: %s", strings.Join(blocked, " "))
}

// runRing is a growable FIFO ring buffer of same-instant entries. Push and
// pop are a mask and an index increment; growth doubles and relinks the two
// halves so FIFO order is preserved. Entries are pointer-free, so popped
// slots need no clearing and the buffer is invisible to the GC scanner.
type runRing struct {
	buf  []entry
	head int
	tail int // one past the last element (== head when the ring is full)
	n    int // element count; the ring is full when n == len(buf)
}

func (r *runRing) empty() bool { return r.n == 0 }

//bgplint:hot
func (r *runRing) push(e entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail] = e
	r.tail = (r.tail + 1) & (len(r.buf) - 1)
	r.n++
}

// reserve grows the ring until n more entries fit, so a multi-waiter
// counter crossing (Counter.release) can write its batch without a check
// per entry.
func (r *runRing) reserve(n int) {
	for r.n+n > len(r.buf) {
		r.grow()
	}
}

//bgplint:hot
func (r *runRing) pop() entry {
	e := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return e
}

func (r *runRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	next := make([]entry, size)
	m := copy(next, r.buf[r.head:])
	copy(next[m:], r.buf[:r.head])
	r.buf, r.head, r.tail = next, 0, r.n
}

// qitem is one pending future entry and the instant it fires at.
type qitem struct {
	t Time
	e entry
}

// qBlock is the item capacity of a qblock: with its chain link a block is
// exactly 4 KB, one allocation size class with no tail waste.
const qBlock = 255

// qblock is one fixed-size block of a radix-queue bucket. The link sits
// first, so the GC scans one word of the block and none of its items.
type qblock struct {
	next *qblock
	it   [qBlock]qitem
}

// radixQueue is the kernel's future-event queue: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) over integer timestamps. It
// relies on the kernel's monotonicity — no push ever lands at or before the
// kernel clock, which last always equals — so an item {t, e} can live in
// bucket bits.Len64(t ^ last): every item in bucket i is earlier than every
// item in bucket j > i. Bucket 0 holds the items at last itself, as the
// contiguous slice now, and drains FIFO through head.
//
// advance moves last to the minimum of the lowest non-empty bucket (found
// through mask and the per-bucket min) and redistributes only that bucket;
// items elsewhere keep their bucket, because the new last agrees with the
// old one on every bit they differ from it in. So all items at one instant
// always share a bucket, in push order, through every redistribution, and
// the drain order is exactly the (t, seq) FIFO with no sequence
// numbers stored. Entries are pointer-free, so the GC never scans an item.
//
// Every bucket i >= 1 is a chain of qblocks from b[i].first to b[i].tail,
// with b[i].room free slots left in the tail. A bucket takes its first
// block on its first item of a run and keeps it, emptied, when it drains;
// every further block comes from the free list and goes back to it as soon
// as a redistribution has read it, and reset returns them all. So the queue
// holds about (pending items / qBlock) blocks plus one per bucket used in
// the run, not the sum of every bucket's largest burst, and a queue that
// never schedules holds none. b[i].room is 0 exactly when the tail is full
// or the bucket has no block yet: callers check it and call grow before
// put, which keeps put a handful of stores the compiler inlines.
//
// The top bucket also takes every item whose bucket index would exceed it:
// items that differ from last in bit 42 or above, i.e. lie across a 2^42 ps
// (4.4 s) boundary from it. A redistribution of the top bucket may refile
// items back into it, which costs time only, never order. Capping the count
// at qBuckets rather than 64 keeps the queue, which every kernel embeds,
// small enough that a Kernel stays in the 2 KB allocation size class.
type radixQueue struct {
	last Time
	head int     // drain cursor into now
	mask uint64  // bit i set iff b[i] is non-empty, for i >= 1
	now  []qitem // bucket 0: the items at last
	free *qblock // blocks no bucket holds, linked through next
	b    [qBuckets]qbucket
}

const qBuckets = 44

// qbucket is one bucket i >= 1: 32 bytes, so a put touches one cache line
// of bucket state.
type qbucket struct {
	first, tail *qblock
	room        int  // free slots in tail
	min         Time // earliest t in the bucket; meaningful only while its mask bit is set
}

// bucket returns the bucket of an item at t >= last.
func (q *radixQueue) bucket(t Time) int {
	return min(bits.Len64(uint64(t^q.last)), qBuckets-1)
}

//bgplint:hot
func (q *radixQueue) push(t Time, e entry) {
	if t <= q.last {
		panic(fmt.Sprintf("sim: queue push at %v not after clock %v", t, q.last))
	}
	i := q.bucket(t)
	if q.b[i].room == 0 {
		q.grow(i)
	}
	q.put(i, qitem{t, e})
}

// put appends an item to bucket i >= 1, whose tail has room.
//
//bgplint:hot
func (q *radixQueue) put(i int, it qitem) {
	bk := &q.b[i]
	bk.tail.it[qBlock-bk.room] = it
	bk.room--
	bk.min = min(bk.min, it.t)
	q.mask |= 1 << i
}

// grow links a block from the free list (or a new one) to the tail of
// bucket i, which has a full tail or, before its first use, no block. A new
// chain's min starts at the latest time, so put can keep it with a plain
// min.
func (q *radixQueue) grow(i int) {
	b := q.free
	if b == nil {
		b = new(qblock)
	} else {
		q.free, b.next = b.next, nil
	}
	bk := &q.b[i]
	if bk.first == nil {
		bk.first, bk.min = b, math.MaxInt64
	} else {
		bk.tail.next = b
	}
	bk.tail, bk.room = b, qBlock
}

// empty drops bucket i's items and every block but its first, which stays
// as the bucket's empty tail, and returns the dropped rest of the chain.
func (q *radixQueue) empty(i int) (rest *qblock) {
	bk := &q.b[i]
	rest, bk.first.next = bk.first.next, nil
	bk.tail, bk.room, bk.min = bk.first, qBlock, math.MaxInt64
	q.mask &^= 1 << i
	return rest
}

// file files items, in order, at the current last. Bucket 0 stays in a
// local while it grows: put and grow never touch it.
//
//bgplint:hot
func (q *radixQueue) file(items []qitem) {
	now := q.now
	for _, it := range items {
		if it.t == q.last {
			now = append(now, it)
			continue
		}
		i := q.bucket(it.t)
		if q.b[i].room == 0 {
			q.grow(i)
		}
		q.put(i, it)
	}
	q.now = now
}

// refile files the items of the detached chain from b to tail, whose tail
// holds n items, returning each block to the free list once it is read. A
// refile may take back a block it freed, but never one it has yet to read.
func (q *radixQueue) refile(b, tail *qblock, n int) {
	for {
		next := b.next
		if b == tail {
			q.file(b.it[:n])
		} else {
			q.file(b.it[:])
		}
		b.next, q.free = q.free, b
		if b == tail {
			return
		}
		b = next
	}
}

// ready reports whether items at last remain to be popped.
func (q *radixQueue) ready() bool { return q.head < len(q.now) }

// pop returns the next item at last; the caller checks ready first.
//
//bgplint:hot
func (q *radixQueue) pop() entry {
	e := q.now[q.head].e
	q.head++
	return e
}

// advance moves last to the earliest pending instant, filling bucket 0 with
// exactly the items at that instant, and reports whether there was one.
// Bucket 0 must be drained.
//
//bgplint:hot
func (q *radixQueue) advance() bool {
	if q.mask == 0 {
		return false
	}
	i := bits.TrailingZeros64(q.mask)
	q.last = q.b[i].min
	q.now, q.head = q.now[:0], 0
	// The bucket keeps its first block, emptied, and the rest of its chain
	// is refiled and freed. Refiling writes only into lower buckets, or —
	// for the top bucket — into that first block at or behind the item
	// being read, and then into blocks already read.
	b, tail, n := q.b[i].first, q.b[i].tail, qBlock-q.b[i].room
	rest := q.empty(i)
	if b == tail {
		q.file(b.it[:n])
		return true
	}
	q.file(b.it[:])
	q.refile(rest, tail, n)
	return true
}

// pending appends every pending item to dst in bucket order, bucket 0 from
// its drain cursor. Within one instant the order is the drain order, so a
// stable sort by t yields the exact (t, seq) sequence.
func (q *radixQueue) pending(dst []qitem) []qitem {
	dst = append(dst, q.now[q.head:]...)
	for m := q.mask; m != 0; m &= m - 1 {
		bk := &q.b[bits.TrailingZeros64(m)]
		for b := bk.first; b != bk.tail; b = b.next {
			dst = append(dst, b.it[:]...)
		}
		dst = append(dst, bk.tail.it[:qBlock-bk.room]...)
	}
	return dst
}

// reset empties the queue for kernel reuse: every block goes back to the
// free list, so a rerun of the same schedule takes blocks in the same order
// and needs no more than the first run did, and bucket 0 keeps its capacity.
func (q *radixQueue) reset() {
	for i := range q.b {
		if bk := &q.b[i]; bk.first != nil {
			bk.tail.next, q.free = q.free, bk.first
			*bk = qbucket{}
		}
	}
	q.now = q.now[:0]
	q.last, q.head, q.mask = 0, 0, 0
}

// shiftAll moves last and every pending item by d > 0: the uniform time
// shift of a steady-state Forward. Bucket 0 (the items at last) moves as a
// block; the future buckets are detached whole, together, and refiled at
// the new last, bucket by bucket, which keeps each instant's items together
// and in order.
func (q *radixQueue) shiftAll(d Time) {
	for i := q.head; i < len(q.now); i++ {
		q.now[i].t += d
	}
	var held [qBuckets]qbucket
	m := q.mask
	for r := m; r != 0; r &= r - 1 {
		i := bits.TrailingZeros64(r)
		held[i], q.b[i] = q.b[i], qbucket{}
	}
	q.mask = 0
	q.last += d
	for ; m != 0; m &= m - 1 {
		bk := &held[bits.TrailingZeros64(m)]
		n := qBlock - bk.room
		for b := bk.first; ; b = b.next {
			items := b.it[:]
			if b == bk.tail {
				items = b.it[:n]
			}
			for j := range items {
				items[j].t += d
			}
			if b == bk.tail {
				break
			}
		}
		q.refile(bk.first, bk.tail, n)
	}
}
