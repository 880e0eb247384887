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
	"bytes"
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
// accumulator samples. A walk that encounters state it cannot canonicalize
// calls Refuse, which voids the capture. The same visitor, switched to
// forward mode by Steady.Forward, re-runs the walk to apply extrapolated
// deltas to the registered monotone accumulators; in forward mode all
// stream-building methods are no-ops.
type FP struct {
	buf   []byte
	lanes []int64

	now     Time
	refused bool
	reason  string

	// Forward mode: Mono* calls consume the shared laneDelta positionally
	// instead of sampling, and everything else is a no-op.
	forward bool
	laneIdx int

	// in is working state shared by every FP in the owning detector's
	// capture window: it is live only during one walk (a comparison needs
	// just buf and lanes), so a single instance serves the whole window.
	in *fpIntern
}

// fpIntern is the per-walk working state shared across a detector's capture
// window. Interning labels objects in first-appearance order, so
// structurally identical states hash identically regardless of which arena
// slots or heap objects they occupy. Labels are assigned before contents
// are walked, so mutually referential states (a counter whose waiter is a
// process parked on that counter) terminate. There is no seen-table: each
// walk draws a process-unique generation from fpGenSource and stamps it
// onto every object it labels (Counter/Pipe/Proc fpGen+fpID fields),
// so membership is two word reads and a rack-scale capture allocates
// nothing per object — the map variant spent hundreds of megabytes (and
// the GC scans of pointer-keyed tables) per million-rank detector.
type fpIntern struct {
	gen    uint64
	nextID uint32

	scratch   []qitem
	laneDelta []int64
}

// fpGenSource hands out process-unique walk generations. A plain counter
// per detector would collide across detectors sharing a kernel's objects;
// a process-wide atomic never repeats within any realistic run.
var fpGenSource atomic.Uint64

func newFPIntern() *fpIntern {
	return &fpIntern{}
}

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

func newFP(in *fpIntern) *FP {
	return &FP{in: in}
}

func (f *FP) reset(now Time) {
	f.buf = f.buf[:0]
	f.lanes = f.lanes[:0]
	f.in.gen = fpGenSource.Add(1)
	f.in.nextID = 0
	f.now = now
	f.refused = false
	f.reason = ""
	f.forward = false
	f.laneIdx = 0
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

func (f *FP) raw8(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.buf = append(f.buf, b[:]...)
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
		f.buf = append(f.buf, fpTrue)
	} else {
		f.buf = append(f.buf, fpFalse)
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
	f.buf = append(f.buf, s...)
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
		*p += f.in.laneDelta[f.laneIdx]
		f.laneIdx++
		return
	}
	f.lanes = append(f.lanes, *p)
}

// MonoInt is MonoI64 for int accumulators.
func (f *FP) MonoInt(p *int) {
	if f.refused {
		return
	}
	if f.forward {
		*p += int(f.in.laneDelta[f.laneIdx])
		f.laneIdx++
		return
	}
	f.lanes = append(f.lanes, int64(*p))
}

// MonoTime is MonoI64 for virtual-time accumulators.
func (f *FP) MonoTime(p *Time) {
	if f.refused {
		return
	}
	if f.forward {
		*p += Time(f.in.laneDelta[f.laneIdx])
		f.laneIdx++
		return
	}
	f.lanes = append(f.lanes, int64(*p))
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
	if c.fpGen == f.in.gen {
		f.buf = append(f.buf, fpRef)
		f.raw8(uint64(c.fpID))
		return
	}
	c.fpGen, c.fpID = f.in.gen, f.in.nextID
	f.in.nextID++
	f.buf = append(f.buf, fpNew)
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
	if p.fpGen == f.in.gen {
		f.buf = append(f.buf, fpRef)
		f.raw8(uint64(p.fpID))
		return
	}
	p.fpGen, p.fpID = f.in.gen, f.in.nextID
	f.in.nextID++
	f.buf = append(f.buf, fpNew)
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
	if p.fpGen == f.in.gen {
		f.buf = append(f.buf, fpRef)
		f.raw8(uint64(p.fpID))
		return
	}
	p.fpGen, p.fpID = f.in.gen, f.in.nextID
	f.in.nextID++
	f.buf = append(f.buf, fpNew)
	f.Bool(p.inline)
	f.Bool(p.armed)
	if p.waitC != nil && !queued {
		f.buf = append(f.buf, fpSome)
		f.Counter(p.waitC)
		f.raw8(uint64(p.waitGE))
	} else {
		f.buf = append(f.buf, fpNil)
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
		f.buf = append(f.buf, st.kind, st.bound)
		f.raw8(uint64(st.d))
		f.raw8(uint64(st.bytes))
		f.raw8(uint64(st.n))
		f.optCounter(st.c)
	}
}

// optCounter hashes a counter operand that may be absent.
func (f *FP) optCounter(c *Counter) {
	if c == nil {
		f.buf = append(f.buf, fpNil)
		return
	}
	f.buf = append(f.buf, fpSome)
	f.Counter(c)
}

// optPipe hashes a pipe operand that may be absent.
func (f *FP) optPipe(p *Pipe) {
	if p == nil {
		f.buf = append(f.buf, fpNil)
		return
	}
	f.buf = append(f.buf, fpSome)
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
	f.buf = append(f.buf, e.kind)
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
	f.in.scratch = k.queue.pending(f.in.scratch[:0])
	slices.SortStableFunc(f.in.scratch, func(a, b qitem) int { return cmp.Compare(a.t, b.t) })
	f.raw8(uint64(len(f.in.scratch)))
	for _, it := range f.in.scratch {
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
type Steady struct {
	k     *Kernel
	extra func(*FP)

	// hist is a rolling window of the most recent captures, newest first:
	// hist[0] is the current capture, hist[p] the one p boundaries back.
	// histN counts the valid older entries; a refused capture empties the
	// window, since a comparison across it would span unobserved state.
	hist  [maxSteadyPeriod + 1]*FP
	histN int

	delta   Time // virtual time of one period (valid after a match)
	period  int  // matched period in boundaries (valid after a match)
	matched *FP  // the earlier capture the current one equals

	attempts int
}

// maxSteadyPeriod bounds the cycle length the detector recognizes. Not
// every measure loop contracts to a fixed point: torus collectives that
// rotate pipelined chunks settle into short cycles (periods 2 and 3 are
// both observed in the Table 1 allreduce sweep), which consecutive-capture
// comparison would never match, and independent sub-cycles compose into
// their LCM (the Fig. 10 FIFO broadcast at one size runs a 3-cycle of
// rotating queue slots against a 2-cycle of alternating back-pressure
// phases: period 6). A small window of retained fingerprints catches them;
// a window slot only allocates its buffers if a capture actually reaches
// it, so fast-settling runs pay for two or three slots regardless of the
// bound.
const maxSteadyPeriod = 6

// maxSteadyAttempts bounds fingerprint work on never-periodic workloads.
// Detecting period p needs roughly warmup + 2p boundaries, so the budget
// leaves room for a late-settling period-6 cycle.
const maxSteadyAttempts = 16

// NewSteady returns a detector for k. extra, if non-nil, is invoked on every
// capture (and every forward replay) to walk layer state above the kernel —
// per-rank residue, collective scratch, measure-loop accumulators.
func NewSteady(k *Kernel, extra func(*FP)) *Steady {
	s := &Steady{k: k, extra: extra}
	in := newFPIntern()
	for i := range s.hist {
		s.hist[i] = newFP(in)
	}
	return s
}

// Rearm readies the detector for a new measurement on the same kernel,
// keeping every buffer it has grown: the capture window empties and the
// attempt budget refills. A pooled world re-arms one detector per
// measurement instead of building a fresh one.
func (s *Steady) Rearm() {
	s.histN, s.attempts = 0, 0
	s.delta, s.period, s.matched = 0, 0, nil
}

// Capture fingerprints the current state and reports whether it matches a
// capture from 1..maxSteadyPeriod boundaries back (periodic steady state
// detected; the smallest period wins). On a match, Delta reports the
// period's virtual-time length and Period the period in boundaries.
func (s *Steady) Capture() bool {
	if s.attempts >= maxSteadyAttempts {
		return false
	}
	// Rotate: the oldest capture's FP is recycled as the new current, so
	// buffer and interning-map capacity settle after the first few rounds.
	last := len(s.hist) - 1
	f := s.hist[last]
	copy(s.hist[1:], s.hist[:last])
	s.hist[0] = f
	f.reset(s.k.now)
	// Size this capture off the previous one: consecutive fingerprints of
	// the same loop are near-identical in length, and growing a rack-scale
	// buffer through append doublings would fault roughly twice the final
	// footprint in throwaway pages.
	if s.histN > 0 {
		prev := s.hist[1]
		if cap(f.buf) < len(prev.buf) {
			f.buf = make([]byte, 0, len(prev.buf)+len(prev.buf)/16)
		}
		if cap(f.lanes) < len(prev.lanes) {
			f.lanes = make([]int64, 0, len(prev.lanes))
		}
	}
	s.k.steadyWalk(f)
	if s.extra != nil && !f.refused {
		s.extra(f)
	}
	if f.refused {
		s.histN = 0
		s.attempts++
		return false
	}
	valid := s.histN
	if s.histN < last {
		s.histN++
	}
	for p := 1; p <= valid; p++ {
		prev := s.hist[p]
		if f.now > prev.now && len(f.lanes) == len(prev.lanes) && bytes.Equal(f.buf, prev.buf) {
			s.delta = f.now - prev.now
			s.period = p
			s.matched = prev
			return true
		}
	}
	s.attempts++
	return false
}

// GaveUp reports that the detector exhausted its attempt budget without
// detecting a period; callers should stop invoking Capture.
func (s *Steady) GaveUp() bool { return s.attempts >= maxSteadyAttempts }

// LastRefusal returns the most recent capture's refusal reason ("" if the
// capture completed).
func (s *Steady) LastRefusal() string { return s.hist[0].reason }

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
// observable state full execution would have reached.
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
	// mode: each lane grows by reps × (current − matched) — its growth
	// across one full cycle of the detected period.
	f := s.hist[0]
	if len(f.in.laneDelta) < len(f.lanes) {
		f.in.laneDelta = make([]int64, len(f.lanes))
	}
	f.in.laneDelta = f.in.laneDelta[:len(f.lanes)]
	for i := range f.lanes {
		f.in.laneDelta[i] = reps * (f.lanes[i] - s.matched.lanes[i])
	}
	f.forward = true
	f.laneIdx = 0
	k.steadyPipes(f)
	if s.extra != nil {
		s.extra(f)
	}
	f.forward = false
	if f.laneIdx != len(f.in.laneDelta) {
		panic("sim: steady forward walk visited a different lane count than capture")
	}
}
