package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// entry is one schedulable unit, encoded without pointers so the run ring,
// the event queue, and every waiter list are memory the GC never has to scan.
// kind selects the dispatch and idx names the target: a slot in the shard's
// callback table (eFn), hook table (eHook), add table (eAdd), or a process's
// dense arena index (everything else).
//
// In a waiter list (Event.waiters, Counter.waiters) every kind other than eFn
// and eHook identifies a parked process, so Shard.wake and the batch-wake
// loops do the blocked bookkeeping exactly for those kinds — the same split
// the old (fn, p) pair expressed with p != nil.
type entry struct {
	kind uint8
	idx  uint32
}

// parked reports whether a released waiter entry resumes a blocked process
// (as opposed to running a callback or hook).
func (e entry) parked() bool { return e.kind != eFn && e.kind != eHook }

// entry kinds. The zero value (eNone) is never scheduled; popping one would
// indicate ring/queue corruption.
const (
	eNone   uint8 = iota
	eFn           // run callback-table slot idx
	eResume       // resume goroutine-backed process idx (returned by next)
	eStep         // advance process idx's fused plan (plan.go)
	eCont         // run process idx's program continuation (program.go)
	eProg         // step process idx's program-mode plan (program.go)
	eAdd          // apply add-table slot idx: a scheduled Counter.Add (AddAt)
	eHook         // run hook-table slot idx: HookAt, OnGEHook, or a delivered PostHook
)

// Kernel is a deterministic discrete-event scheduler. The zero value is not
// usable; create kernels with New.
//
// All scheduling state lives in shards (see shard.go). A fresh kernel has
// exactly one — the root shard, embedded by value so the serial path pays no
// extra indirection — and every Kernel-level scheduling method delegates to
// it. NewShard/NewHubShard partition the simulation for parallel conservative
// epochs (see epoch.go); with more than one shard Run becomes the epoch
// controller instead of the single-queue loop.
type Kernel struct {
	s0     Shard
	shards []*Shard

	// lookahead is the conservative-PDES window width: the minimum virtual
	// latency of any cross-shard interaction. Cross-shard posts destined for
	// a peer shard must land at least this far in the future (see
	// Shard.postTo); posts into a hub shard only need t >= now, because hubs
	// run strictly after the peer phase within each window.
	lookahead Time

	running bool

	// noHandoff forces every yield through the shard's scheduler loop (the
	// pre-handoff two-rendezvous protocol). It exists for the determinism
	// stress tests, which compare event orderings with and without the
	// direct-handoff fast path.
	noHandoff bool

	// noFuse makes plan-attached waits run their steps through the ordinary
	// process primitives instead of fused callbacks (see plan.go) — the
	// reference semantics the determinism stress tests compare against.
	noFuse bool

	// noProgram makes SpawnProgram fall back to goroutine-backed processes
	// (see program.go): the same process bodies run through the blocking
	// primitives instead of inline continuations — the reference mode the
	// determinism stress tests and the CI program-vs-reference bench compare
	// against.
	noProgram bool

	// noShard runs a sharded kernel's epochs sequentially on the calling
	// goroutine — same windows, same mailbox merges, same committed order,
	// no worker goroutines. It is the reference vehicle the determinism
	// stress tests compare the parallel execution against, mirroring
	// noHandoff/noFuse/noProgram.
	noShard bool

	// noExtrap disables steady-state iteration extrapolation (steady.go):
	// Steady.Capture refuses on a noExtrap kernel, so every measure-loop
	// iteration executes. The full-execution reference vehicle, mirroring
	// the flags above.
	noExtrap bool

	// pipes registers every pipe created on this kernel so Reset can rewind
	// their reservation state along with the clock.
	pipes []*Pipe

	// epoch counts Resets. Events, counters, and processes are stamped with
	// the epoch they were carved in; using a handle from a previous epoch
	// panics deterministically instead of corrupting the next run (the slab
	// slot may already belong to someone else).
	epoch uint32

	// mergeBuf is the epoch controller's reusable mailbox merge scratch.
	mergeBuf []xmsg
}

// New returns a kernel with the clock at zero and a single root shard.
func New() *Kernel {
	k := &Kernel{}
	k.s0.init(k, 0, false)
	k.shards = append(k.shards, &k.s0)
	return k
}

// Now returns the current virtual time: the root shard's clock, or — on a
// sharded kernel, where shards advance independently inside a window — the
// maximum over all shards (the horizon every committed event is behind).
func (k *Kernel) Now() Time {
	if len(k.shards) == 1 {
		return k.s0.now
	}
	var t Time
	for _, sh := range k.shards {
		if sh.now > t {
			t = sh.now
		}
	}
	return t
}

// SetNoProgram toggles the goroutine-backed reference mode for SpawnProgram
// (see program.go). It must be called before any process is spawned; the two
// modes produce bit-identical event orderings, so this exists for the
// determinism stress tests and the program-vs-reference benchmark runs.
func (k *Kernel) SetNoProgram(v bool) { k.noProgram = v }

// SetNoShard toggles the sequential-epoch reference vehicle for sharded
// kernels (see epoch.go). It may be set any time before Run; both vehicles
// execute the identical window/mailbox algorithm, so every trace, failure,
// and deadlock report is bit-identical between them.
func (k *Kernel) SetNoShard(v bool) { k.noShard = v }

// SetNoExtrap toggles the full-execution reference vehicle for the steady-
// state extrapolation detector (steady.go): captures on a noExtrap kernel
// refuse, so every iteration executes. Extrapolated and full runs are
// bit-identical by construction; the flag exists for the equivalence tests
// and the -noextrap benchmark runs.
func (k *Kernel) SetNoExtrap(v bool) { k.noExtrap = v }

// NoExtrap reports whether steady-state extrapolation is disabled.
func (k *Kernel) NoExtrap() bool { return k.noExtrap }

// SetLookahead declares the conservative window width for sharded runs: no
// cross-shard interaction may take effect sooner than this after it is
// posted. The machine layer computes it as the minimum cross-node latency of
// the networks in play. Sharded Run panics without a positive lookahead.
func (k *Kernel) SetLookahead(d Time) {
	if d <= 0 {
		panic("sim: non-positive lookahead")
	}
	k.lookahead = d
}

// Lookahead returns the configured conservative window width.
func (k *Kernel) Lookahead() Time { return k.lookahead }

// Sharded reports whether the kernel has more than one shard.
func (k *Kernel) Sharded() bool { return len(k.shards) > 1 }

// ShardCount returns the number of shards (1 for a fresh kernel).
func (k *Kernel) ShardCount() int { return len(k.shards) }

// RootShard returns the kernel's always-present shard 0, the one every
// Kernel-level scheduling method operates on.
func (k *Kernel) RootShard() *Shard { return &k.s0 }

// Reset returns the kernel to its post-New state while keeping every
// allocation it has accumulated: arena slabs, queue and ring capacity, the
// callback tables, grown waiter lists, the shard partition, and the pipes
// created on it. Pipes survive with their identity intact (their reservation
// state rewinds to zero); events, counters, and processes do not — their
// slab slots will be recarved, so handles from before the Reset are poison,
// and the epoch stamp makes using one panic deterministically.
//
// Reset panics if called during Run or while processes are still live: a
// failed run (deadlock, process panic) leaves parked processes behind, and
// reusing such a kernel would replay unrelated state into the next run. Only
// kernels whose last Run completed cleanly are resettable; drop the rest.
func (k *Kernel) Reset() {
	if k.running {
		panic("sim: Reset during Run")
	}
	for _, sh := range k.shards {
		if len(sh.procs) > 0 || sh.blocked != 0 {
			panic("sim: Reset with live processes; only a cleanly finished kernel can be reset")
		}
	}
	for _, sh := range k.shards {
		sh.reset()
	}
	for _, p := range k.pipes {
		p.free, p.totalBytes, p.busy, p.transfers = 0, 0, 0, 0
	}
	k.epoch++
}

// At schedules fn to run on the root shard at absolute virtual time t.
// Scheduling in the past panics: it indicates a broken cost model rather
// than a recoverable state. Code running inside a peer shard of a sharded
// kernel must use Shard.At (or the object-routed AddAt) instead.
func (k *Kernel) At(t Time, fn func()) { k.s0.At(t, fn) }

// After schedules fn to run d after the root shard's current time.
func (k *Kernel) After(d Time, fn func()) { k.s0.After(d, fn) }

// addAt is one scheduled counter add: the pointer-lean form of
// At(t, func() { c.Add(n) }), stored in the shard's add table so the hot
// DMA-completion paths schedule no closures.
type addAt struct {
	c *Counter
	n int64
}

// AddAt schedules c.Add(n) at absolute virtual time t, occupying exactly the
// (time, seq) position the equivalent At callback would. The entry lands on
// the counter's own shard, which on a sharded kernel must also be the
// calling shard; cross-shard adds go through Shard.PostAdd. Like At,
// scheduling in the past panics; like every counter operation, a handle from
// before a Reset panics at registration.
//
//bgplint:hot
func (k *Kernel) AddAt(t Time, c *Counter, n int64) { c.sh.AddAt(t, c, n) }

// HookAt schedules h.RunPost(a, b) on the root shard at absolute virtual
// time t: the closure-free At (see Shard.HookAt).
//
//bgplint:hot
func (k *Kernel) HookAt(t Time, h PostHandler, a, b int64) { k.s0.HookAt(t, h, a, b) }

// Run executes events until the queues drain or a process fails. It returns
// an error if a process panicked or if processes remain blocked with no
// pending events (virtual deadlock). On a sharded kernel Run is the
// conservative epoch controller (epoch.go).
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	k.running = true
	defer func() { k.running = false }()

	if len(k.shards) > 1 {
		return k.runSharded()
	}
	s := &k.s0
	s.runWindow(maxWindow)
	if err := k.checkFailure(); err != nil {
		return err
	}
	if s.blocked > 0 {
		return k.deadlockError()
	}
	return nil
}

// checkFailure surfaces the first recorded failure in shard order: callback
// panics re-panic (they must crash Run, as they do when the scheduler loop
// runs the callback), and process panics return as errors. Shard order makes
// the choice deterministic when a parallel phase fails in several shards at
// once.
func (k *Kernel) checkFailure() error {
	for _, sh := range k.shards {
		if sh.failure != nil {
			if r := sh.cbPanic; r != nil {
				sh.cbPanic = nil
				panic(r)
			}
			return sh.failure
		}
	}
	return nil
}

func (k *Kernel) deadlockError() error {
	// Sort the report so the error text depends neither on discovery order
	// nor on the shard partition (determinism tests compare failure output
	// across all kernel modes, sharded included).
	var blocked []string
	for _, sh := range k.shards {
		for _, pi := range sh.procs {
			p := sh.procAt(pi)
			if what := p.blockedOn(); what != "" {
				blocked = append(blocked, fmt.Sprintf("%s(%s)", p.Name(), what))
			}
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

// pushBatch appends a slice of entries in order with a single capacity check
// and at most two copies (wraparound). Event fan-out and multi-waiter counter
// crossings use it to wake N parties as one batch instead of N pushes.
//
//bgplint:hot
func (r *runRing) pushBatch(es []entry) {
	for r.n+len(es) > len(r.buf) {
		r.grow()
	}
	m := copy(r.buf[r.tail:], es)
	copy(r.buf, es[m:])
	r.tail = (r.tail + len(es)) & (len(r.buf) - 1)
	r.n += len(es)
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

// radixQueue is the shard's future-event queue: a monotone radix heap
// (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990) over integer timestamps. It
// relies on the kernel's monotonicity — no push ever lands at or before the
// shard clock, which last always equals — so an item {t, e} can live in
// bucket bits.Len64(t ^ last): every item in bucket i is earlier than every
// item in bucket j > i. Bucket 0 holds the items at last itself and drains
// FIFO through head.
//
// advance moves last to the minimum of the lowest non-empty bucket (found
// through mask and the per-bucket min) and redistributes only that bucket;
// items elsewhere keep their bucket, because the new last agrees with the
// old one on every bit they differ from it in. So all items at one instant
// always share a bucket, in push order, through every redistribution, and
// the drain order is exactly the per-shard (t, seq) FIFO with no sequence
// numbers stored. Entries are pointer-free, so the GC never scans a bucket.
//
// The top bucket also takes every item whose bucket index would exceed it:
// items that differ from last in bit 42 or above, i.e. lie across a 2^42 ps
// (4.4 s) boundary from it. A redistribution of the top bucket may refile
// items back into it, which costs time only, never order. Capping the count
// at qBuckets rather than 64 keeps the queue, which every kernel embeds,
// small enough that a Kernel stays in the 2 KB allocation size class.
type radixQueue struct {
	last Time
	head int    // drain cursor into b[0]
	mask uint64 // bit i set iff b[i] is non-empty, for i >= 1
	b    [qBuckets][]qitem
	min  [qBuckets]Time // earliest t in b[i]; meaningful only while mask bit i is set
}

const qBuckets = 44

//bgplint:hot
func (q *radixQueue) push(t Time, e entry) {
	if t <= q.last {
		panic(fmt.Sprintf("sim: queue push at %v not after clock %v", t, q.last))
	}
	q.put(qitem{t, e})
}

// pushMail is push for delivered cross-shard mail, which may also land at
// last itself (see Shard.deliver): such an item joins bucket 0 behind the
// items already there.
func (q *radixQueue) pushMail(t Time, e entry) {
	if t < q.last {
		panic(fmt.Sprintf("sim: mail delivered at %v before clock %v", t, q.last))
	}
	q.put(qitem{t, e})
}

// put files an item at t >= last into its bucket.
//
//bgplint:hot
func (q *radixQueue) put(it qitem) {
	i := min(bits.Len64(uint64(it.t^q.last)), qBuckets-1)
	q.b[i] = append(q.b[i], it)
	if i == 0 {
		return
	}
	if bit := uint64(1) << i; q.mask&bit == 0 {
		q.mask |= bit
		q.min[i] = it.t
	} else if it.t < q.min[i] {
		q.min[i] = it.t
	}
}

// ready reports whether items at last remain to be popped.
func (q *radixQueue) ready() bool { return q.head < len(q.b[0]) }

// pop returns the next item at last; the caller checks ready first.
//
//bgplint:hot
func (q *radixQueue) pop() entry {
	e := q.b[0][q.head].e
	q.head++
	return e
}

// advance moves last to the earliest pending instant if it lies before
// wend, filling bucket 0 with exactly the items at that instant, and
// reports whether it did. Otherwise it changes nothing. Bucket 0 must be
// drained.
//
//bgplint:hot
func (q *radixQueue) advance(wend Time) bool {
	if q.mask == 0 {
		return false
	}
	i := bits.TrailingZeros64(q.mask)
	if q.min[i] >= wend {
		return false
	}
	q.last = q.min[i]
	q.b[0], q.head = q.b[0][:0], 0
	// Refiling writes only into lower buckets, or — for the top bucket —
	// back into b at or behind the item being read.
	b := q.b[i]
	q.b[i] = b[:0]
	q.mask &^= 1 << i
	for _, it := range b {
		q.put(it)
	}
	return true
}

// peek returns the earliest pending instant without changing the queue.
func (q *radixQueue) peek() (Time, bool) {
	if q.ready() {
		return q.last, true
	}
	if q.mask == 0 {
		return 0, false
	}
	return q.min[bits.TrailingZeros64(q.mask)], true
}

// pending appends every pending item to dst in bucket order, bucket 0 from
// its drain cursor. Within one instant the order is the drain order, so a
// stable sort by t yields the exact (t, seq) sequence.
func (q *radixQueue) pending(dst []qitem) []qitem {
	dst = append(dst, q.b[0][q.head:]...)
	for m := q.mask; m != 0; m &= m - 1 {
		dst = append(dst, q.b[bits.TrailingZeros64(m)]...)
	}
	return dst
}

// reset empties the queue for kernel reuse, keeping bucket capacity.
func (q *radixQueue) reset() {
	for i := range q.b {
		q.b[i] = q.b[i][:0]
	}
	q.last, q.head, q.mask = 0, 0, 0
}

// shiftAll moves last and every pending item by d > 0: the uniform time
// shift of a steady-state Forward. Bucket 0 (the items at last) moves as a
// block; the future buckets are refiled at the new last, bucket by bucket,
// which keeps each instant's items together and in order.
func (q *radixQueue) shiftAll(d Time) {
	for i := q.head; i < len(q.b[0]); i++ {
		q.b[0][i].t += d
	}
	var rest []qitem
	for m := q.mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		rest = append(rest, q.b[i]...)
		q.b[i] = q.b[i][:0]
	}
	q.mask = 0
	q.last += d
	for _, it := range rest {
		it.t += d
		q.put(it)
	}
}
