package sim

// Steady-state iteration extrapolation.
//
// The paper's methodology times each collective over an ITERS loop; in a
// bit-deterministic simulator every post-warmup iteration is identical, so
// executing them all recomputes numbers the kernel already proved. This file
// detects the per-iteration fixpoint and replays the remaining iterations
// analytically.
//
// The mechanism is a canonical fingerprint of the kernel's observable state,
// taken at a caller-chosen iteration boundary (the measure loop's
// barrier-release instant). The fingerprint is a byte stream over everything
// that can influence future execution — pending ring and queue entries,
// parked processes and their waits and tables, event and counter waiter
// lists, live pipe reservations, plus caller-supplied layer state — with
// every virtual time encoded relative to the boundary instant, so two
// iterations that differ only by a constant time shift produce identical
// streams. Objects (events, counters, pipes, processes) are interned in
// first-appearance order, so per-iteration objects at different slab slots
// compare equal when their contents do. State that is *not* observable in a
// clean run is deliberately excluded: arena carve counts, free-list stacks,
// table lengths, queue bucket placement, and names are all
// invisible to simulation code, and hashing them would make warmup churn
// (which permanently grows tables) look like perpetual change.
//
// Induction argument: the kernel is a deterministic transition function of
// its observable state. If the states at boundaries k-p and k are isomorphic
// up to a uniform time shift Δ (equal fingerprints), then the execution from
// boundary k reproduces the execution from boundary k-p shifted by Δ —
// including reaching boundary k+p in the same state shifted by another Δ.
// Therefore the remaining iterations repeat that p-iteration cycle, and
// Forward may apply the shift `whole-periods × Δ` at once: advance the
// clock, shift every pending queue entry and live pipe reservation, and
// replay each registered monotone accumulator (per-iteration elapsed sums,
// syscall counters, pipe statistics) by `whole-periods × its per-period
// delta`. The in-flight iterations — fewer than one period — then execute
// live and land the kernel in the exact observable state a full run would
// have reached. p == 1 is the classic fixpoint; small p > 1 shows up when a
// collective rotates buffers or pipelined chunks across iterations.
//
// Anything the fingerprint cannot canonicalize — pending hooks and closures
// (eHook entries), unknown layer state — refuses the capture; after a few
// refused or unequal attempts the detector gives up and the run simply
// executes every iteration, bit-identical to a run that never armed a
// detector.

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync/atomic"
)

// Hasher is implemented by layer state (collective-op entries, process
// residue) that knows how to canonicalize itself into a fingerprint.
type Hasher interface {
	SteadyState(f *FP)
}

// FP accumulates one canonical fingerprint: a byte stream of
// boundary-relative observable state plus a positional list of monotone
// accumulator samples (lanes). A walk that encounters state it cannot
// canonicalize calls Refuse, which voids the capture. The same visitor,
// switched to forward mode by Steady.Forward, re-runs the walk to apply
// extrapolated deltas to the registered monotone accumulators; in forward
// mode all stream-building methods are no-ops.
//
// A detector's FP writes each capture over the previous one in place. While
// a capture is being written, the backing arrays still hold the previous
// capture's bytes from len(buf) up to prevBuf and its samples from
// len(lanes) up to prevLanes, and every byte and step the capture changes is
// noted first in the undo record the detector hands it (see Steady).
type FP struct {
	buf   []byte
	lanes []int64
	// steps[i] is lane i's growth since the previous capture, a lane missing
	// from either capture reading 0 there. Steps are written only while the
	// previous capture is one the detector still holds (stepping).
	steps []int64

	prevBuf, prevLanes, prevSteps int

	stepping bool
	bufUndo  *undo[byte]  // nil: no older stream to keep
	stepUndo *undo[int64] // nil: no older steps to keep

	now     Time
	refused bool
	reason  string

	// Forward mode: Mono* calls add steps positionally (Forward has turned
	// them into whole-period deltas) instead of sampling, and everything
	// else is a no-op.
	forward bool
	laneIdx int

	// Interning labels objects in first-appearance order, so structurally
	// identical states hash identically regardless of which arena slots or
	// heap objects they occupy. Labels are assigned before contents are
	// walked, so mutually referential states (a counter whose waiter is a
	// process parked on that counter) terminate. There is no seen-table:
	// each walk draws a process-unique generation from fpGenSource and
	// stamps it onto every object it labels (Counter/Pipe/Proc fpGen+fpID
	// fields), so membership is two word reads and a rack-scale capture
	// allocates nothing per object — the map variant spent hundreds of
	// megabytes (and the GC scans of pointer-keyed tables) per million-rank
	// detector.
	gen     uint64
	nextID  uint32
	scratch []qitem
}

// fpGenSource hands out process-unique walk generations. A plain counter
// per detector would collide across detectors sharing a kernel's objects;
// a process-wide atomic never repeats within any realistic run.
var fpGenSource atomic.Uint64

// Stream-element markers. The walk's structure is deterministic, so these
// exist only to keep reference and first-appearance encodings from aliasing.
const (
	fpRef   = 0xE0
	fpNew   = 0xE1
	fpNil   = 0x00
	fpSome  = 0x01
	fpFalse = 0x00
	fpTrue  = 0x01
)

// reset starts a capture at now, over the previous one.
func (f *FP) reset(now Time) {
	f.prevBuf, f.prevLanes, f.prevSteps = len(f.buf), len(f.lanes), len(f.steps)
	f.buf, f.lanes, f.steps = f.buf[:0], f.lanes[:0], f.steps[:0]
	f.gen = fpGenSource.Add(1)
	f.nextID = 0
	f.now = now
	f.refused = false
	f.reason = ""
	f.forward = false
	f.laneIdx = 0
}

// finish completes a capture that was not refused: a lane the previous
// capture had and this one lacks steps to 0, and whatever the previous
// stream and steps held past the new lengths is noted.
func (f *FP) finish() {
	if f.stepping {
		prev := f.lanes[:f.prevLanes] // lanes shrank, so nothing was reallocated
		for i := len(f.lanes); i < f.prevLanes; i++ {
			f.step(-prev[i])
		}
	}
	if u := f.stepUndo; u != nil {
		prev := f.steps[:f.prevSteps]
		for i := len(f.steps); i < f.prevSteps; i++ {
			u.note(i, prev[i])
		}
		u.n = f.prevSteps
	}
	if u := f.bufUndo; u != nil {
		prev := f.buf[:f.prevBuf]
		for i := len(f.buf); i < f.prevBuf; i++ {
			u.note(i, prev[i])
		}
		u.n = f.prevBuf
	}
	if len(f.buf) > f.prevBuf {
		f.buf = fit(f.buf)
	}
	if len(f.lanes) > f.prevLanes {
		f.lanes = fit(f.lanes)
	}
	if len(f.steps) > f.prevSteps {
		f.steps = fit(f.steps)
	}
}

// grow makes room for n more elements, doubling the capacity where append
// would grow a large slice by a quarter: a first capture at rack scale grows
// megabytes from nothing, and every step leaves its predecessor as garbage.
// finish trims the spare.
func grow[T byte | int64](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return slices.Grow(s, max(n, len(s)))
}

// fit returns s reallocated to its length plus a sixteenth when append
// growth left it more spare capacity than that. Captures of one loop are
// near-identical in length, so the spare would only ever hold junk, and at
// rack scale it is megabytes.
func fit[T byte | int64](s []T) []T {
	if cap(s)-len(s) <= len(s)/16 {
		return s
	}
	return append(make([]T, 0, len(s)+len(s)/16), s...)
}

// Refuse voids the capture: the walk hit state that cannot be canonicalized
// (a pending closure, an unknown op type, residue in a mailbox). The first
// reason sticks.
func (f *FP) Refuse(reason string) {
	if f.refused || f.forward {
		return
	}
	f.refused = true
	f.reason = reason
}

// Refused reports whether this capture was voided.
func (f *FP) Refused() bool { return f.refused }

// put1 appends one byte to the stream, over the previous capture's byte
// there if it has one.
func (f *FP) put1(b byte) {
	n := len(f.buf)
	if n >= f.prevBuf {
		f.buf = append(grow(f.buf, 1), b)
		return
	}
	f.buf = f.buf[:n+1]
	if old := f.buf[n]; old != b {
		if f.bufUndo != nil {
			f.bufUndo.note(n, old)
		}
		f.buf[n] = b
	}
}

func (f *FP) raw8(v uint64) {
	n := len(f.buf)
	switch {
	case n >= f.prevBuf:
		f.buf = binary.LittleEndian.AppendUint64(grow(f.buf, 8), v)
	case n+8 <= f.prevBuf:
		w := f.buf[n : n+8]
		if old := binary.LittleEndian.Uint64(w); old != v {
			if f.bufUndo != nil {
				for i := range 8 {
					if b := byte(v >> (8 * i)); w[i] != b {
						f.bufUndo.note(n+i, w[i])
					}
				}
			}
			binary.LittleEndian.PutUint64(w, v)
		}
		f.buf = f.buf[:n+8]
	default: // the previous stream ends inside this word
		for i := range 8 {
			f.put1(byte(v >> (8 * i)))
		}
	}
}

// I64 appends an absolute integer to the stream.
func (f *FP) I64(v int64) {
	if f.refused || f.forward {
		return
	}
	f.raw8(uint64(v))
}

// Bool appends a flag to the stream.
func (f *FP) Bool(v bool) {
	if f.refused || f.forward {
		return
	}
	if v {
		f.put1(fpTrue)
	} else {
		f.put1(fpFalse)
	}
}

// Time appends a virtual instant, normalized to the boundary: two captures
// whose instants differ by exactly the boundary shift hash identically.
func (f *FP) Time(t Time) { f.I64(int64(t - f.now)) }

// Dur appends a duration (shift-invariant already).
func (f *FP) Dur(d Time) { f.I64(int64(d)) }

// Str appends a length-prefixed string.
func (f *FP) Str(s string) {
	if f.refused || f.forward {
		return
	}
	f.raw8(uint64(len(s)))
	for len(s) > 0 && len(f.buf) < f.prevBuf {
		f.put1(s[0])
		s = s[1:]
	}
	f.buf = append(grow(f.buf, len(s)), s...)
}

// sample appends a lane, over the previous capture's sample there, and
// while stepping the lane's step.
func (f *FP) sample(v int64) {
	i := len(f.lanes)
	var prev int64
	if i < f.prevLanes {
		prev = f.lanes[:i+1][i]
	}
	f.lanes = append(grow(f.lanes, 1), v)
	if f.stepping {
		f.step(v - prev)
	}
}

// step appends a step, over the previous capture's step there.
func (f *FP) step(d int64) {
	i := len(f.steps)
	if i >= f.prevSteps {
		f.steps = append(grow(f.steps, 1), d)
		return
	}
	f.steps = f.steps[:i+1]
	if old := f.steps[i]; old != d {
		if f.stepUndo != nil {
			f.stepUndo.note(i, old)
		}
		f.steps[i] = d
	}
}

// MonoI64 registers a monotone accumulator: in capture mode its value is
// sampled positionally (outside the equality stream — accumulators grow
// between iterations by construction); in forward mode the extrapolated
// delta is added in place.
func (f *FP) MonoI64(p *int64) {
	if f.refused {
		return
	}
	if f.forward {
		*p += f.steps[f.laneIdx]
		f.laneIdx++
		return
	}
	f.sample(*p)
}

// MonoInt is MonoI64 for int accumulators.
func (f *FP) MonoInt(p *int) {
	if f.refused {
		return
	}
	if f.forward {
		*p += int(f.steps[f.laneIdx])
		f.laneIdx++
		return
	}
	f.sample(int64(*p))
}

// MonoTime is MonoI64 for virtual-time accumulators.
func (f *FP) MonoTime(p *Time) {
	if f.refused {
		return
	}
	if f.forward {
		*p += Time(f.steps[f.laneIdx])
		f.laneIdx++
		return
	}
	f.sample(int64(*p))
}

// Counter interns c and, on first appearance, hashes its value and waiter
// thresholds. Values are hashed absolute: every counter reachable at a
// steady boundary is per-operation state that restarts each iteration, and
// a genuinely monotone counter soundly (if conservatively) prevents
// steadiness rather than corrupting it.
func (f *FP) Counter(c *Counter) {
	if f.refused || f.forward {
		return
	}
	if c.fpGen == f.gen {
		f.put1(fpRef)
		f.raw8(uint64(c.fpID))
		return
	}
	c.fpGen, c.fpID = f.gen, f.nextID
	f.nextID++
	f.put1(fpNew)
	f.raw8(uint64(c.v))
	f.raw8(uint64(len(c.waiters)))
	for _, w := range c.waiters {
		f.raw8(uint64(w.threshold))
		f.entryCanon(c.k, w.e, false)
	}
}

// PipeRef interns p and, on first appearance, hashes its rate, latency and
// boundary-relative next-free instant (an idle pipe hashes as free-now).
func (f *FP) PipeRef(p *Pipe) {
	if f.refused || f.forward {
		return
	}
	if p.fpGen == f.gen {
		f.put1(fpRef)
		f.raw8(uint64(p.fpID))
		return
	}
	p.fpGen, p.fpID = f.gen, f.nextID
	f.nextID++
	f.put1(fpNew)
	f.raw8(math.Float64bits(p.ppb))
	f.raw8(uint64(p.lat))
	rel := p.free - f.now
	if rel < 0 {
		rel = 0
	}
	f.raw8(uint64(rel))
}

// procRef interns a process index and, on first appearance, hashes the
// process's schedulable content: mode flags, what it waits on, and the steps
// its table has yet to run. The continuation closure itself is not hashable;
// the program contract (a continuation is a pure function of the process's
// reached state) makes the reached state a sufficient proxy.
//
// queued says the walk reached the process through a run-ring or queue
// entry, so it waits on nothing: a release leaves waitC set until the
// process next runs (Kernel.wake), and the stale counter is neither hashed
// nor interned through it. The run ring is walked first, so every released
// process is interned there before the process list reaches it.
func (f *FP) procRef(k *Kernel, pi uint32, queued bool) {
	if f.refused || f.forward {
		return
	}
	p := k.procAt(pi)
	if p.fpGen == f.gen {
		f.put1(fpRef)
		f.raw8(uint64(p.fpID))
		return
	}
	p.fpGen, p.fpID = f.gen, f.nextID
	f.nextID++
	f.put1(fpNew)
	f.Bool(p.inline)
	f.Bool(p.armed)
	if p.waitC != nil && !queued {
		f.put1(fpSome)
		f.Counter(p.waitC)
		f.raw8(uint64(p.waitGE))
	} else {
		f.put1(fpNil)
	}
	// Only the table's un-run steps steer future execution: stepPlan resumes
	// at plan.i, and RunThen resets it, so the operands a finished table
	// leaves behind are never read again, and a plan past its last step has
	// dropped its table. The operands hash once, before the steps.
	pl := &p.plan
	var rest []planStep
	if pl.tab != nil {
		rest = pl.tab.steps[pl.i:]
	}
	f.raw8(uint64(len(rest)))
	if len(rest) == 0 {
		return
	}
	for _, c := range pl.c {
		f.optCounter(c)
	}
	f.optPipe(pl.pipe)
	for i := range rest {
		st := &rest[i]
		if st.kind == stepPost {
			// The post handler is an arbitrary object: nothing says what it
			// will do when the step runs.
			f.Refuse("pending plan post step")
			return
		}
		f.put1(st.kind)
		f.put1(st.bound)
		f.raw8(uint64(st.d))
		f.raw8(uint64(st.bytes))
		f.raw8(uint64(st.n))
		f.optCounter(st.c)
	}
}

// optCounter hashes a counter operand that may be absent.
func (f *FP) optCounter(c *Counter) {
	if c == nil {
		f.put1(fpNil)
		return
	}
	f.put1(fpSome)
	f.Counter(c)
}

// optPipe hashes a pipe operand that may be absent.
func (f *FP) optPipe(p *Pipe) {
	if p == nil {
		f.put1(fpNil)
		return
	}
	f.put1(fpSome)
	f.PipeRef(p)
}

// entryCanon hashes one pending queue/ring/waiter entry; queued marks a
// run-ring or queue entry (see procRef). Process entries hash by interned
// process, whose plan says whether the entry steps a table or resumes;
// scheduled adds hash by counter and increment. Hook entries hold handlers
// and closures the fingerprint cannot see through, so they refuse the
// capture.
func (f *FP) entryCanon(k *Kernel, e entry, queued bool) {
	if f.refused || f.forward {
		return
	}
	f.put1(e.kind)
	switch e.kind {
	case eProc:
		f.procRef(k, e.idx, queued)
	case eAdd:
		a := k.adds.s[e.idx]
		f.Counter(a.c)
		f.raw8(uint64(a.n))
	default: // eHook, eNone
		f.Refuse("pending callback entry")
	}
}

// steadyWalk hashes the kernel's observable scheduling state: pending ring
// entries in FIFO order, pending queue entries in (time, seq) order with
// boundary-relative times, every registered process, and the machine's base
// pipes. Failed kernels refuse.
func (k *Kernel) steadyWalk(f *FP) {
	if k.failure != nil {
		f.Refuse("failed kernel")
		return
	}
	f.now = k.now
	f.raw8(uint64(k.blocked))

	f.raw8(uint64(k.ring.n))
	for i := 0; i < k.ring.n; i++ {
		f.entryCanon(k, k.ring.buf[(k.ring.head+i)&(len(k.ring.buf)-1)], true)
		if f.refused {
			return
		}
	}

	// Stable-sorting the pending items by time yields the queue's exact
	// drain order (each instant's items share a bucket in seq order), so the
	// stream is independent of how items happen to be bucketed. Bucket 0 may
	// be mid-drain (the boundary callback itself came out of it): its
	// consumed prefix is gone from the observable state and is not listed.
	f.scratch = k.queue.pending(f.scratch[:0])
	slices.SortStableFunc(f.scratch, func(a, b qitem) int { return cmp.Compare(a.t, b.t) })
	f.raw8(uint64(len(f.scratch)))
	for _, it := range f.scratch {
		f.Time(it.t)
		f.entryCanon(k, it.e, true)
		if f.refused {
			return
		}
	}

	f.raw8(uint64(len(k.procs)))
	for _, pi := range k.procs {
		f.procRef(k, pi, false)
		if f.refused {
			return
		}
	}

	k.steadyPipes(f)
}

// steadyPipes registers every registered pipe's cumulative statistics as
// monotone lanes and hashes every live reservation. That includes pipes
// adopted after the detector was armed, such as torus links a fresh world
// grows during its first measurement, so an extrapolated run reports the
// same pipe statistics as a fully executed one. A pipe adopted between two
// captures changes the lane count, and Capture never matches captures of
// different lane counts. This walk runs in forward mode too, so its Mono*
// sequence must stay positionally identical between modes.
func (k *Kernel) steadyPipes(f *FP) {
	for _, p := range k.pipes {
		f.MonoI64(&p.totalBytes)
		f.MonoTime(&p.busy)
		f.MonoI64(&p.transfers)
	}
	if f.forward || f.refused {
		return
	}
	// Live reservations: pipes still occupied past the boundary instant.
	live := 0
	for _, p := range k.pipes {
		if p.free > f.now {
			live++
		}
	}
	f.raw8(uint64(live))
	for _, p := range k.pipes {
		if p.free > f.now {
			f.PipeRef(p)
		}
	}
}

// Steady is the per-run steady-state detector. The measure-loop harness
// calls Capture at each iteration boundary; when the current capture's
// fingerprint equals one taken p boundaries earlier (p up to
// maxSteadyPeriod), the workload is periodic with period p, Capture returns
// true, and the harness may call Forward to extrapolate whole periods.
// Classic steady state is the p == 1 case. A capture that is refused or
// matches nothing counts as an attempt; after maxSteadyAttempts the detector
// stops fingerprinting so a workload that never becomes periodic pays
// nothing further.
//
// The capture window holds the newest capture in full (f: its stream, its
// lanes and its steps, each lane's growth since the capture before) and
// each older one as exact differences against the next newer one (past).
// Consecutive captures of one loop are near-identical, so the differences
// are small beside the stream, and the window costs one stream and two
// lane arrays where whole captures cost one stream and one lane array each.
type Steady struct {
	k     *Kernel
	extra func(*FP)

	f *FP
	// past[j] describes the capture j+1 boundaries back. held counts the
	// valid captures, f's included; a refused capture empties the window,
	// since a comparison across it would span unobserved state.
	past [maxSteadyPeriod]*pastCapture
	held int

	delta  Time // virtual time of one period (valid after a match)
	period int  // matched period in boundaries (valid after a match)

	attempts int
}

// pastCapture is an older capture as the window keeps it: its boundary
// instant and lane count, the undo that turns the next newer capture's
// stream into its stream, and the undo that turns the next newer capture's
// steps into its own steps.
type pastCapture struct {
	now   Time
	lanes int
	buf   undo[byte]
	steps undo[int64]
}

// undo turns an array into the one it replaced: the replaced array's length
// n, and its values at every index where the two differ, in increasing
// index order. Indexes past the newer array's end are noted too, so an
// undo alone says what the older array held wherever it differs.
type undo[T byte | int64] struct {
	n   int
	at  []uint32
	old []T
}

func (u *undo[T]) reset() {
	u.n, u.at, u.old = 0, u.at[:0], u.old[:0]
}

func (u *undo[T]) note(i int, v T) {
	if uint(i) > math.MaxUint32 {
		panic("sim: steady-state capture past 4 GiB")
	}
	u.at = append(u.at, uint32(i))
	u.old = append(u.old, v)
}

// maxSteadyPeriod bounds the cycle length the detector recognizes. Not
// every measure loop contracts to a fixed point: torus collectives that
// rotate pipelined chunks settle into short cycles (periods 2 and 3 are
// both observed in the Table 1 allreduce sweep), which consecutive-capture
// comparison would never match, and independent sub-cycles compose into
// their LCM (the Fig. 10 FIFO broadcast at one size runs a 3-cycle of
// rotating queue slots against a 2-cycle of alternating back-pressure
// phases: period 6). The window keeps differences, not copies, so the
// bound costs memory only where captures actually differ.
const maxSteadyPeriod = 6

// maxSteadyAttempts bounds fingerprint work on never-periodic workloads.
// Detecting period p needs roughly warmup + 2p boundaries, so the budget
// leaves room for a late-settling period-6 cycle.
const maxSteadyAttempts = 16

// NewSteady returns a detector for k. extra, if non-nil, is invoked on every
// capture (and every forward replay) to walk layer state above the kernel —
// per-rank residue, collective scratch, measure-loop accumulators.
func NewSteady(k *Kernel, extra func(*FP)) *Steady {
	s := &Steady{k: k, extra: extra, f: &FP{}}
	for i := range s.past {
		s.past[i] = &pastCapture{}
	}
	return s
}

// Rearm readies the detector for a new measurement on the same kernel,
// keeping every buffer it has grown: the capture window empties and the
// attempt budget refills. A pooled world re-arms one detector per
// measurement instead of building a fresh one.
func (s *Steady) Rearm() {
	s.held, s.attempts = 0, 0
	s.delta, s.period = 0, 0
}

// Capture fingerprints the current state and reports whether it matches a
// capture from 1..maxSteadyPeriod boundaries back (periodic steady state
// detected; the smallest period wins). On a match, Delta reports the
// period's virtual-time length and Period the period in boundaries.
func (s *Steady) Capture() bool {
	if s.attempts >= maxSteadyAttempts {
		return false
	}
	f := s.f
	older := min(s.held, maxSteadyPeriod)
	// The capture about to be written over becomes past[0], in the slot of
	// the oldest, whose buffers are recycled.
	p0 := s.past[len(s.past)-1]
	copy(s.past[1:], s.past[:len(s.past)-1])
	s.past[0] = p0
	p0.now, p0.lanes = f.now, len(f.lanes)
	p0.buf.reset()
	p0.steps.reset()
	f.stepping, f.bufUndo, f.stepUndo = older > 0, nil, nil
	if older > 0 {
		f.bufUndo = &p0.buf
	}
	if older > 1 {
		f.stepUndo = &p0.steps
	}

	f.reset(s.k.now)
	s.k.steadyWalk(f)
	if s.extra != nil && !f.refused {
		s.extra(f)
	}
	if f.refused {
		s.held = 0
		s.miss()
		return false
	}
	f.finish()
	s.held = older + 1
	for p := 1; p <= older; p++ {
		prev := s.past[p-1]
		if f.now > prev.now && len(f.lanes) == prev.lanes && s.streamMatches(p) {
			s.delta = f.now - prev.now
			s.period = p
			return true
		}
	}
	s.miss()
	return false
}

// miss counts a capture that matched nothing against the attempt budget.
func (s *Steady) miss() {
	s.attempts++
	if s.GaveUp() {
		s.spend()
	}
}

// spend drops the undo records once the window is of no further use: a
// replay consumed it, or the attempt budget ran out. They hold only what
// differs between captures, mostly warm-up churn, so a pooled world regrows
// them per measurement instead of keeping the largest window it ever saw.
func (s *Steady) spend() {
	for _, p := range s.past {
		p.buf, p.steps = undo[byte]{}, undo[int64]{}
	}
}

// streamMatches reports whether the capture p boundaries back has the
// current stream. Its length must be the current one's, and wherever one of
// the p undos between them notes an offset, the older value there — from
// the oldest undo noting it, since each later undo only restates what the
// one before it turned the byte into — must be the current byte. Every
// other offset holds the same byte in every capture between.
func (s *Steady) streamMatches(p int) bool {
	buf := s.f.buf
	if s.past[p-1].buf.n != len(buf) {
		return false
	}
	var c [maxSteadyPeriod]int // per undo, its next noted offset
	for {
		at := math.MaxInt
		for j := range p {
			if u := &s.past[j].buf; c[j] < len(u.at) {
				at = min(at, int(u.at[c[j]]))
			}
		}
		if at >= len(buf) {
			return true
		}
		var v byte
		for j := range p {
			if u := &s.past[j].buf; c[j] < len(u.at) && int(u.at[c[j]]) == at {
				v = u.old[c[j]]
				c[j]++
			}
		}
		if v != buf[at] {
			return false
		}
	}
}

// GaveUp reports that the detector exhausted its attempt budget without
// detecting a period; callers should stop invoking Capture.
func (s *Steady) GaveUp() bool { return s.attempts >= maxSteadyAttempts }

// LastRefusal returns the most recent capture's refusal reason ("" if the
// capture completed).
func (s *Steady) LastRefusal() string { return s.f.reason }

// Delta returns the detected period's virtual-time length (valid after
// Capture returned true).
func (s *Steady) Delta() Time { return s.delta }

// Period returns the detected period in iteration boundaries (valid after
// Capture returned true). Callers must extrapolate whole periods: skipping
// a non-multiple would land the run at the wrong phase of the cycle.
func (s *Steady) Period() int { return s.period }

// Forward extrapolates reps whole periods after a successful Capture: the
// clock, every pending queue entry and every live pipe reservation advance by
// reps × Delta, and every monotone accumulator registered by the walk grows
// by reps × its per-period delta. The caller's in-flight iterations — fewer
// than one period of them — then execute live, landing the run in the exact
// observable state full execution would have reached. The replay spends the
// capture window: the next Capture starts a new one.
//
// Forward runs inside a scheduled callback, which is safe precisely because
// the shift is uniform: every pending entry moves with the clock, so no
// entry's relative order or past/future classification changes.
func (s *Steady) Forward(reps int64) {
	if reps <= 0 {
		return
	}
	k := s.k
	shift := Time(reps) * s.delta
	k.queue.shiftAll(shift)
	for _, p := range k.pipes {
		if p.free > k.now {
			p.free += shift
		}
	}
	k.now += shift

	// Replay the monotone accumulators through the same walk in forward
	// mode: each lane grows by reps × its growth across one full cycle of
	// the detected period.
	f := s.f
	s.periodSteps(reps)
	s.held = 0
	s.spend()
	f.forward = true
	f.laneIdx = 0
	k.steadyPipes(f)
	if s.extra != nil {
		s.extra(f)
	}
	f.forward = false
	if f.laneIdx != len(f.lanes) {
		panic("sim: steady forward walk visited a different lane count than capture")
	}
}

// periodSteps overwrites each lane's step with reps × the lane's growth over
// the matched period: the sum of its steps in the period's captures, each
// older capture's steps read through the undos like streamMatches reads
// bytes (a step past its array's end is 0).
func (s *Steady) periodSteps(reps int64) {
	f := s.f
	var c [maxSteadyPeriod]int
	for i := range f.lanes {
		v := f.steps[i]
		sum := v
		for j := range s.period - 1 {
			u := &s.past[j].steps
			if c[j] < len(u.at) && int(u.at[c[j]]) == i {
				v = u.old[c[j]]
				c[j]++
			}
			if i < u.n {
				sum += v
			}
		}
		f.steps[i] = reps * sum
	}
}
