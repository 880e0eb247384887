package sim

import (
	"fmt"
	"sort"
	"strings"
)

// entry is one schedulable unit, encoded without pointers so the run ring,
// the event heap, and every waiter list are memory the GC never has to scan.
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
// indicate ring/heap corruption.
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
	tail int // one past the last element; buf is full when len == cap-1 slots used
	n    int
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

// scheduled is one future timestamp in the event heap: its firing time, the
// sequence number of the first entry batched at that node (the same-time
// FIFO tiebreak), and the index of the batch holding the entries themselves.
// Pointer-free: a megabyte-scale heap of these contributes nothing to a GC
// mark phase (the batch table's slice spines are the only headers scanned).
type scheduled struct {
	t   Time
	seq int64
	bi  int32
}

// eventHeap is a monomorphic 4-ary min-heap of entry batches ordered by
// (t, seq). A 4-ary layout halves the tree depth of a binary heap, and the
// concrete element type avoids the interface boxing and indirect calls of
// container/heap.
//
// Entries scheduled at the same instant are batched into one heap node:
// collective phases wake whole tree levels at one timestamp, so roughly half
// of all pushes in a full sweep land at the time of an immediately preceding
// push. Batching turns those pushes into a plain append (no sift-up) and —
// the real win — pays the pop's full-depth sift-down once per distinct
// timestamp instead of once per entry, on a heap with proportionally fewer
// nodes.
//
// The batch a push may join is tracked by a two-slot (time, batch) cache of
// the most recently created batches. The cache only ever routes a push to
// the *newest* batch at its timestamp: a hit appends (monotonically growing
// seq), and a miss creates a fresh batch that supersedes any older one at
// that time, whose node then drains first by (t, firstSeq) order. Batch
// membership therefore never reorders entries — global execution order stays
// exactly the per-shard (t, seq) FIFO of the unbatched heap — and the cache
// influences only where entries are stored, never when they run.
type eventHeap struct {
	s   []scheduled
	seq int64

	// pos is the drain cursor into the root's batch: pop returns
	// buckets[s[0].bi][pos] and removes the root node only once its batch is
	// exhausted. A push may append to the root's batch mid-drain (it holds
	// the newest seq and there is no younger batch at that time while the
	// cache points there), which simply extends the current drain.
	pos int

	// buckets is the batch table; bfree recycles slots LIFO so a reused
	// kernel assigns the same slot numbers as a fresh one.
	buckets [][]entry
	bfree   []int32

	// The batch cache: up to two distinct (time, batch) pairs, LRU-evicted.
	// Two slots cover the ping-pong of a transfer-completion time interleaved
	// with same-instant wakeups that a single slot would thrash on.
	cacheT   [2]Time
	cacheB   [2]int32
	cacheOK  [2]bool
	cacheLRU uint8
}

//bgplint:hot
func (h *eventHeap) push(t Time, ent entry) {
	h.seq++
	if h.cacheOK[0] && h.cacheT[0] == t {
		bi := h.cacheB[0]
		h.buckets[bi] = append(h.buckets[bi], ent)
		h.cacheLRU = 1
		return
	}
	if h.cacheOK[1] && h.cacheT[1] == t {
		bi := h.cacheB[1]
		h.buckets[bi] = append(h.buckets[bi], ent)
		h.cacheLRU = 0
		return
	}
	// New batch at t.
	var bi int32
	if n := len(h.bfree); n > 0 {
		bi = h.bfree[n-1]
		h.bfree = h.bfree[:n-1]
		h.buckets[bi] = append(h.buckets[bi][:0], ent)
	} else {
		bi = int32(len(h.buckets))
		//bgplint:allow hotalloc -- one-time bucket-table growth; slots recycle through bfree across Reset, so a warmed kernel never reaches this branch
		b := make([]entry, 1, 4)
		b[0] = ent
		h.buckets = append(h.buckets, b)
	}
	v := h.cacheLRU
	h.cacheT[v], h.cacheB[v], h.cacheOK[v] = t, bi, true
	h.cacheLRU = 1 - v
	h.s = append(h.s, scheduled{t: t, seq: h.seq, bi: bi})
	// Sift up.
	s := h.s
	i := len(s) - 1
	e := s[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := s[parent]
		if e.t > p.t || (e.t == p.t && e.seq > p.seq) {
			break
		}
		s[i] = p
		i = parent
	}
	s[i] = e
}

//bgplint:hot
func (h *eventHeap) pop() entry {
	s := h.s
	bi := s[0].bi
	b := h.buckets[bi]
	ent := b[h.pos]
	if h.pos++; h.pos < len(b) {
		return ent
	}
	// Batch exhausted: recycle its slot (dropping it from the cache) and
	// remove the root node.
	h.pos = 0
	h.bfree = append(h.bfree, bi)
	if h.cacheOK[0] && h.cacheB[0] == bi {
		h.cacheOK[0] = false
	}
	if h.cacheOK[1] && h.cacheB[1] == bi {
		h.cacheOK[1] = false
	}
	n := len(s) - 1
	e := s[n]
	h.s = s[:n]
	if n == 0 {
		return ent
	}
	// Sift down from the root.
	s = h.s
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		min := first
		m := s[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			x := s[c]
			if x.t < m.t || (x.t == m.t && x.seq < m.seq) {
				min, m = c, x
			}
		}
		if e.t < m.t || (e.t == m.t && e.seq < m.seq) {
			break
		}
		s[i] = m
		i = min
	}
	s[i] = e
	return ent
}

// reset rewinds the heap for kernel reuse, rebuilding the batch freelist so
// a reused heap assigns batch slots in the same order a fresh one would.
func (h *eventHeap) reset() {
	h.s = h.s[:0]
	h.seq = 0
	h.pos = 0
	h.cacheOK[0], h.cacheOK[1] = false, false
	h.cacheLRU = 0
	h.bfree = h.bfree[:0]
	for i := len(h.buckets) - 1; i >= 0; i-- {
		h.buckets[i] = h.buckets[i][:0]
		h.bfree = append(h.bfree, int32(i))
	}
}

// shiftAll moves every pending node (and the batch cache's timestamps) by d:
// the uniform time shift of a steady-state Forward. Relative order is
// untouched.
func (h *eventHeap) shiftAll(d Time) {
	s := h.s
	for i := range s {
		s[i].t += d
	}
	if h.cacheOK[0] {
		h.cacheT[0] += d
	}
	if h.cacheOK[1] {
		h.cacheT[1] += d
	}
}
