package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// steadyRig is a miniature of the bench measure loop, entirely inside the
// sim package: n program processes run iters rounds of (work; barrier),
// and the first process released from each round's barrier drives a Steady
// detector exactly the way internal/bench's extrapolator does. The work is
// a shared-pipe transfer plus a deferred counter add whose eAdd entry is
// still pending in the heap at the boundary, so captures exercise ring
// entries, heap entries and live plan/wait state together.
type steadyRig struct {
	t    *testing.T
	kern *Kernel
	pipe *Pipe

	n     int
	iters int
	// work is the per-round transfer size. A rig whose work changes every
	// round never reaches steady state; the extra walk hashes it, exactly
	// as a layer's SteadyState must hash anything that steers future
	// execution.
	work func(round int) int
	// noExtrap makes the rig the full-execution reference: it never
	// captures, as bench's measure loop arms no detector in that mode.
	noExtrap bool
	// bgDelay is the deferred add's horizon: longer than one round but
	// shorter than two, so every boundary sees exactly one pending heap
	// eAdd at a constant relative offset.
	bgDelay Time

	det     *Steady
	loops   []*steadyLoop
	calls   int
	bk      int
	skipped int64
	done    bool

	arrived int
	ev      *Counter
}

type steadyLoop struct {
	rig     *steadyRig
	p       *Proc
	id      int
	i       int
	elapsed Time
	start   Time
}

const rigBarLat = Time(1500)

func newSteadyRig(t *testing.T, n, iters int, work func(round int) int, noExtrap bool) *steadyRig {
	k := New()
	r := &steadyRig{t: t, kern: k, n: n, iters: iters, work: work, noExtrap: noExtrap}
	// One steady round: n serialized transfers on the shared pipe (1 ps/byte,
	// 25 ps latency on the last sleeper) plus the barrier release.
	r.bgDelay = Time(n*work(0)) + 25 + rigBarLat + 1000
	r.pipe = k.NewPipe("rig.bus", 1e12, 25) // 1 ps/byte
	r.det = NewSteady(k, func(f *FP) {
		f.I64(int64(r.arrived))
		f.I64(int64(len(r.loops)))
		for _, l := range r.loops {
			f.I64(int64(r.work(l.i))) // behavior-steering state: hashed, not laned
			f.MonoTime(&l.elapsed)
			f.MonoInt(&l.i)
		}
	})
	for id := 0; id < n; id++ {
		l := &steadyLoop{rig: r, id: id}
		r.loops = append(r.loops, l)
		l.p = k.SpawnProgram(fmt.Sprintf("rig%d", id), func(p *Proc) {
			l.p = p
			l.iter()
		})
	}
	return r
}

func (l *steadyLoop) iter() {
	if l.i == l.rig.iters {
		return
	}
	r := l.rig
	if r.arrived == 0 {
		r.ev = r.kern.NewCounter("rig.round")
	}
	r.arrived++
	ev := r.ev
	if r.arrived == r.n {
		r.arrived = 0
		r.kern.After(rigBarLat, ev.Fire)
	}
	l.p.WaitGEThen(ev, 1, l.afterBarrier)
}

func (l *steadyLoop) afterBarrier() {
	r := l.rig
	r.boundary()
	l.start = l.p.Now()
	if l.id == 0 {
		// A deferred add outliving this round: a pending heap eAdd at every
		// boundary, on a per-round counter so its content is round-invariant.
		r.kern.AddAt(l.p.Now()+r.bgDelay, r.kern.NewCounter("rig.bg"), 7)
	}
	done := r.pipe.Reserve(r.work(l.i))
	l.p.SleepUntilThen(done, l.afterWork)
}

func (l *steadyLoop) afterWork() {
	l.elapsed += l.p.Now() - l.start
	l.i++
	l.iter()
}

// boundary mirrors bench/extrap.go: the first release of each round's
// barrier captures; on a match the remaining rounds are extrapolated.
func (r *steadyRig) boundary() {
	if r.done || r.noExtrap {
		return
	}
	r.calls++
	if (r.calls-1)%r.n != 0 {
		return
	}
	if r.det.GaveUp() {
		r.done = true
		return
	}
	r.bk++
	if !r.det.Capture() {
		return
	}
	p := int64(r.det.Period())
	if skip := int64(r.iters-r.bk) / p * p; skip > 0 {
		r.det.Forward(skip / p)
		r.skipped += skip
	}
	r.done = true
}

func (r *steadyRig) run() {
	if err := r.kern.Run(); err != nil {
		r.t.Fatalf("rig run: %v", err)
	}
}

// rigState flattens everything observable the rig and kernel end in.
func (r *steadyRig) state() string {
	b, busy, tr := r.pipe.Stats()
	s := fmt.Sprintf("now=%d pipe=%d/%d/%d", r.kern.Now(), b, busy, tr)
	for _, l := range r.loops {
		s += fmt.Sprintf(" [%d i=%d elapsed=%d]", l.id, l.i, l.elapsed)
	}
	return s
}

// TestSteadyExtrapolationMatchesReference pins the induction end to end: a
// periodic workload with extrapolation lands in exactly the state full
// execution reaches — clock, per-loop accumulators and pipe statistics —
// and the detector genuinely skipped the tail.
func TestSteadyExtrapolationMatchesReference(t *testing.T) {
	work := func(int) int { return 4096 }
	ref := newSteadyRig(t, 4, 40, work, true)
	ref.run()
	ext := newSteadyRig(t, 4, 40, work, false)
	ext.run()
	if got, want := ext.state(), ref.state(); got != want {
		t.Fatalf("extrapolated end state\n %s\nreference end state\n %s", got, want)
	}
	if ext.skipped == 0 {
		t.Fatalf("detector never engaged on a periodic workload (last refusal: %q)", ext.det.LastRefusal())
	}
	if ref.skipped != 0 {
		t.Fatalf("noExtrap rig extrapolated %d rounds", ref.skipped)
	}
}

// TestSteadyPeriodicCycleExtrapolates pins the period-p generalization: a
// workload whose rounds cycle through p transfer sizes never matches
// consecutively, but the detector catches the cycle against its capture
// window, skips whole periods only, and still lands in the reference end
// state — the torus-allreduce shape (pipelined chunk rotation) in
// miniature.
func TestSteadyPeriodicCycleExtrapolates(t *testing.T) {
	for _, period := range []int{2, 3} {
		t.Run(fmt.Sprintf("period%d", period), func(t *testing.T) {
			work := func(round int) int { return 4096 + 1024*(round%period) }
			ref := newSteadyRig(t, 4, 41, work, true)
			ref.run()
			ext := newSteadyRig(t, 4, 41, work, false)
			ext.run()
			if got, want := ext.state(), ref.state(); got != want {
				t.Fatalf("periodic extrapolated end state\n %s\nreference end state\n %s", got, want)
			}
			if ext.skipped == 0 {
				t.Fatalf("detector never engaged on a period-%d workload (last refusal: %q)", period, ext.det.LastRefusal())
			}
			if p := ext.det.Period(); p != period {
				t.Fatalf("detected period %d, want %d", p, period)
			}
			if ext.skipped%int64(period) != 0 {
				t.Fatalf("skipped %d rounds, not a whole number of %d-round periods", ext.skipped, period)
			}
		})
	}
}

// TestSteadyNeverSteadyFallsBack pins the fallback: a workload whose
// behavior-steering state changes every round must never match, the
// detector must stop burning fingerprints after its attempt budget, and the
// run must complete identically to the noExtrap reference.
func TestSteadyNeverSteadyFallsBack(t *testing.T) {
	work := func(round int) int { return 1024 + 512*round }
	ref := newSteadyRig(t, 3, 24, work, true)
	ref.run()
	rig := newSteadyRig(t, 3, 24, work, false)
	rig.run()
	if rig.skipped != 0 {
		t.Fatalf("never-steady workload extrapolated %d rounds", rig.skipped)
	}
	if !rig.det.GaveUp() {
		t.Fatalf("detector did not cap its attempts on a never-steady workload")
	}
	if got, want := rig.state(), ref.state(); got != want {
		t.Fatalf("fallback end state\n %s\nreference end state\n %s", got, want)
	}
}

// TestSteadyCaptureRefusals pins the refusal guards: closures the
// fingerprint cannot see through and layer refusals both void the capture
// instead of guessing.
func TestSteadyCaptureRefusals(t *testing.T) {
	t.Run("pending callback", func(t *testing.T) {
		k := New()
		k.At(10, func() {})
		det := NewSteady(k, nil)
		if det.Capture() {
			t.Fatal("capture matched with no previous capture")
		}
		if det.LastRefusal() == "" {
			t.Fatal("pending At closure did not refuse the capture")
		}
	})
	t.Run("layer refusal", func(t *testing.T) {
		k := New()
		det := NewSteady(k, func(f *FP) { f.Refuse("layer says no") })
		det.Capture()
		if got := det.LastRefusal(); got != "layer says no" {
			t.Fatalf("layer refusal = %q", got)
		}
	})
}

// TestSteadyResetReuse pins the epoch interaction: a kernel that
// extrapolated, Reset, and re-ran produces the same states as one that
// never extrapolated — Forward leaves nothing Reset cannot rewind.
func TestSteadyResetReuse(t *testing.T) {
	work := func(int) int { return 2048 }
	// Two rounds of run+Reset on one kernel... the rig owns its kernel, so
	// emulate reuse by running an extrapolated rig, resetting its kernel,
	// and running a fresh workload on it against a never-extrapolated twin.
	a := newSteadyRig(t, 3, 30, work, false)
	a.run()
	if a.skipped == 0 {
		t.Fatalf("first run never extrapolated (last refusal: %q)", a.det.LastRefusal())
	}
	a.kern.Reset()

	b := newSteadyRig(t, 3, 30, work, true)
	b.run()
	b.kern.Reset()

	// Re-run the same workload shape on both reset kernels, full execution,
	// and require identical outcomes.
	rerun := func(k *Kernel) string {
		p := k.NewPipe("post.bus", 1e12, 10)
		var endA, endB Time
		k.SpawnProgram("post0", func(pr *Proc) {
			done := p.Reserve(512)
			pr.SleepUntilThen(done, func() { endA = pr.Now() })
		})
		k.SpawnProgram("post1", func(pr *Proc) {
			done := p.Reserve(256)
			pr.SleepUntilThen(done, func() { endB = pr.Now() })
		})
		if err := k.Run(); err != nil {
			t.Fatalf("post-reset run: %v", err)
		}
		return fmt.Sprintf("%d/%d/%d", k.Now(), endA, endB)
	}
	if got, want := rerun(a.kern), rerun(b.kern); got != want {
		t.Fatalf("post-reset run after extrapolation %q, after full execution %q", got, want)
	}
}

// BenchmarkSteadyFingerprint measures one Capture on a populated kernel:
// the cost extrapolation pays per boundary until detection.
func BenchmarkSteadyFingerprint(b *testing.B) {
	work := func(int) int { return 4096 }
	r := newSteadyRig(nil, 64, 1<<30, work, true) // noExtrap: the rig itself must not consume the detector
	// Run a few rounds by bounding iterations through a manual boundary cap:
	// instead, capture against the freshly spawned state (ring holds every
	// loop's first barrier wait).
	det := NewSteady(r.kern, func(f *FP) {
		for _, l := range r.loops {
			f.MonoTime(&l.elapsed)
			f.MonoInt(&l.i)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.attempts = 0
		det.Capture()
	}
}

// TestSteadyRearm checks what a re-armed detector starts from: an empty
// capture window and a refilled attempt budget. Every pipe registered at
// capture time is a lane, including one adopted after the detector was
// built.
func TestSteadyRearm(t *testing.T) {
	k := New()
	k.NewPipe("base", 1e9, 0)
	refuse := true
	det := NewSteady(k, func(f *FP) {
		if refuse {
			f.Refuse("layer says no")
		}
	})
	for !det.GaveUp() {
		det.Capture()
	}
	k.NewPipe("adopted", 1e9, 0)
	det.Rearm()
	if det.GaveUp() || det.held != 0 {
		t.Fatalf("re-armed detector: gave up %v, %d captures in its window", det.GaveUp(), det.held)
	}
	refuse = false
	det.Capture()
	if got := len(det.f.lanes); got != 6 {
		t.Fatalf("capture registered %d lanes, want 3 for each of 2 pipes", got)
	}
}

// TestSteadyNoMatchAcrossPipeAdoption: captures of the same state match
// one boundary apart, except across a pipe adoption, which changes the
// lane count.
func TestSteadyNoMatchAcrossPipeAdoption(t *testing.T) {
	k := New()
	k.NewPipe("base", 1e9, 0)
	det := NewSteady(k, nil)
	var matched []Time
	var boundary func()
	boundary = func() {
		if det.Capture() {
			matched = append(matched, k.Now())
		}
		if k.Now() == 2 {
			k.NewPipe("adopted", 1e9, 0)
		}
		if k.Now() < 5 {
			k.At(k.Now()+1, boundary)
		}
	}
	k.At(1, boundary)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 4, 5}
	if fmt.Sprint(matched) != fmt.Sprint(want) {
		t.Fatalf("captures matched at %v, want %v (none at 3, across the adoption)", matched, want)
	}
}

// planCapture fingerprints a kernel whose one process first runs a table of
// the ran sleeps to completion, then parks on a gate counter with a table of
// the pending sleeps still to run.
func planCapture(t *testing.T, ran, pending []Time) []byte {
	t.Helper()
	k := New()
	start, gate := k.NewCounter("start"), k.NewCounter("gate")
	first := waitTable(start, 0, [2]*Counter{}, ran...)
	then := waitTable(gate, 1, [2]*Counter{}, pending...)
	k.SpawnProgram("p", func(p *Proc) {
		p.RunThen(first, func() {
			if pending == nil {
				p.WaitGEThen(gate, 1, nop) // the finished table stays in the cursor
				return
			}
			p.RunThen(then, nop)
		})
	})
	var buf []byte
	k.At(1000, func() {
		f := &FP{}
		f.reset(k.now)
		k.steadyWalk(f)
		if f.Refused() {
			t.Fatalf("capture refused: %s", f.reason)
		}
		buf = append(buf, f.buf...)
		gate.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSteadyHashesOnlyUnrunPlanSteps: the steps a finished table leaves in
// its process's cursor are never run again, so captures that differ only in
// them compare equal; a step still to run steers the future, so captures
// that differ in one compare unequal.
func TestSteadyHashesOnlyUnrunPlanSteps(t *testing.T) {
	if a, b := planCapture(t, []Time{5}, nil), planCapture(t, []Time{7, 9}, nil); !bytes.Equal(a, b) {
		t.Error("captures that differ only in a finished table compare unequal")
	}
	if a, b := planCapture(t, []Time{5}, []Time{5}), planCapture(t, []Time{5}, []Time{7}); bytes.Equal(a, b) {
		t.Error("captures that differ in an un-run table step compare equal")
	}
}
