package sim

// A Plan is a short program of timed steps — fixed sleeps, serialized
// resource occupations, counter additions — that a process attaches to a
// Wait or WaitGE so the whole sequence runs while the process stays parked.
// Without a plan, a per-chunk protocol body like "wait for the counter, poll,
// copy" costs one goroutine switch per blocking step; with one, the kernel
// executes the intermediate steps as inline callbacks under whichever
// goroutine holds the virtual-CPU token and resumes the process only after
// the final step. On partitions with thousands of processes each switch is a
// cache-cold goroutine wakeup, so fusing the steps is the sim's single
// biggest scheduling win.
//
// Determinism: a plan is a mechanical transcription of the process slices it
// replaces. Each step performs its kernel-visible actions (Pipe.Reserve,
// Counter.Add) at the same virtual instant the process would have, and
// schedules its successor at the moment the process would have pushed its own
// resume, so every queue entry keeps the exact (time, seq) position of the
// unfused execution. The final timed step schedules a plain process resume;
// a plan that ends on an instant step instead resumes the process via
// Kernel.fused, which next() returns before popping further entries — again
// the exact position the process slice would have occupied. The noFuse kernel
// flag makes WaitPlan/WaitGEPlan fall back to the literal unfused sequence,
// which the determinism stress tests compare against.
//
// Plans are built through the owning process's reusable buffer (NewPlan) and
// are single-shot: attaching one to a wait consumes it.
type Plan struct {
	p     *Proc
	steps []planStep
	i     int
}

type planStep struct {
	kind  uint8
	d     Time // stepSleep: duration; stepBusy: concurrent fixed cost
	pipe  *Pipe
	bytes int
	c     *Counter
	n     int64
}

const (
	stepSleep = iota
	stepBusy
	stepAdd
)

// NewPlan clears and returns p's plan buffer. The returned plan may only be
// attached to waits of p, and only the most recently built plan is valid.
//
//bgplint:hot
func (p *Proc) NewPlan() *Plan {
	p.plan.p = p
	p.plan.steps = p.plan.steps[:0]
	p.plan.i = 0
	return &p.plan
}

// Sleep appends a fixed delay, the fused equivalent of Proc.Sleep(d).
//
//bgplint:hot
func (pl *Plan) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	pl.steps = append(pl.steps, planStep{kind: stepSleep, d: d})
}

// Busy appends a serialized resource occupation, the fused equivalent of
//
//	done := pipe.Reserve(bytes); p.SleepUntil(max(done, now+concurrent))
//
// — the pattern hw uses for core-driven memory operations, where the same
// bytes occupy both the core and the shared bus.
//
//bgplint:hot
func (pl *Plan) Busy(pipe *Pipe, bytes int, concurrent Time) {
	pl.steps = append(pl.steps, planStep{kind: stepBusy, pipe: pipe, bytes: bytes, d: concurrent})
}

// Add appends a counter addition executed at the instant the preceding step
// completes, the fused equivalent of c.Add(n) between two blocking steps.
//
//bgplint:hot
func (pl *Plan) Add(c *Counter, n int64) {
	pl.steps = append(pl.steps, planStep{kind: stepAdd, c: c, n: n})
}

// WaitPlan blocks on ev and then runs pl while p stays parked, returning
// after the plan's last step. With no plan steps it is exactly Wait.
//
//bgplint:hot
func (p *Proc) WaitPlan(ev *Event, pl *Plan) {
	if len(pl.steps) == 0 {
		p.Wait(ev)
		return
	}
	if ev.fired || p.k.noFuse {
		p.Wait(ev)
		pl.runInline(p)
		return
	}
	p.check()
	ev.check()
	p.waitEv = ev
	p.k.blocked++
	ev.waiters = append(ev.waiters, entry{kind: eStep, idx: p.self})
	p.yield()
}

// WaitGEPlan blocks until c reaches at least v and then runs pl while p
// stays parked, returning after the plan's last step. With no plan steps it
// is exactly WaitGE.
//
//bgplint:hot
func (p *Proc) WaitGEPlan(c *Counter, v int64, pl *Plan) {
	if len(pl.steps) == 0 {
		p.WaitGE(c, v)
		return
	}
	if c.v >= v || p.k.noFuse {
		p.WaitGE(c, v)
		pl.runInline(p)
		return
	}
	p.check()
	c.check()
	p.waitC, p.waitGE = c, v
	p.k.blocked++
	c.wait(v, entry{kind: eStep, idx: p.self})
	p.yield()
}

// advance runs plan steps from the current position: instant steps execute
// in place, a timed step schedules the plan's continuation — or, if it is the
// last step, the process's resume itself — at its completion time. It runs as
// a queue callback under the current token holder; a panicking step fails the
// simulation like a process panic (the process stays parked).
//
//bgplint:hot
func (p *Proc) advance() {
	defer p.recoverStep()
	k := p.k
	pl := &p.plan
	for pl.i < len(pl.steps) {
		s := &pl.steps[pl.i]
		pl.i++
		var done Time
		switch s.kind {
		case stepSleep:
			done = k.now + s.d
		case stepBusy:
			done = s.pipe.Reserve(s.bytes)
			if c := k.now + s.d; c > done {
				done = c
			}
			if done <= k.now {
				continue // mirrors the unfused SleepUntil fast path
			}
		case stepAdd:
			s.c.Add(s.n)
			continue
		}
		if pl.i == len(pl.steps) {
			k.schedProc(done, p)
		} else {
			k.schedStep(done, p)
		}
		return
	}
	// Exhausted on instant steps: the process must continue at exactly this
	// queue position, before any other pending entry.
	k.fused = p
}

// runInline executes the plan through the ordinary process primitives — the
// literal sequence the fused path transcribes. Used when the blocking
// condition is already satisfied and in noFuse reference mode.
//
//bgplint:hot
func (pl *Plan) runInline(p *Proc) {
	for i := range pl.steps {
		s := &pl.steps[i]
		switch s.kind {
		case stepSleep:
			p.Sleep(s.d)
		case stepBusy:
			done := s.pipe.Reserve(s.bytes)
			if c := p.k.now + s.d; c > done {
				done = c
			}
			p.SleepUntil(done)
		case stepAdd:
			s.c.Add(s.n)
		}
	}
	pl.i = len(pl.steps)
}

func (p *Proc) recoverStep() {
	if r := recover(); r != nil {
		p.k.fail(procPanicError(p.Name(), r))
	}
}
