// Process operations: sleeping, waiting and table stepping in
// explicit-resume style, for both process kinds.
//
// Every operation that consumes virtual time takes the rest of the body as a
// continuation. Parking is storing that func and arming exactly one
// pointer-free eProc entry naming the process, which steps the process's
// table while it has one and otherwise runs the continuation (Proc.run). The
// two process kinds differ only in where the continuation runs:
//
//   - An inline (program) process has no goroutine. The kernel runs its
//     body and every continuation as queue callbacks on Run's goroutine, so
//     a rank whose body is program-expressible never touches a channel or
//     the Go scheduler.
//   - A goroutine process (Kernel.Spawn, or SpawnProgram in noProgram mode)
//     arms the identical eProc entry and then parks its goroutine. When the
//     entry is dispatched, next() returns the process and it runs the stored
//     continuation on its own stack. Blocking code passes a no-op
//     continuation and carries on after the call. Its tables run step by
//     step (Plan.runInline): the goroutine vehicle is the literal reference
//     the fused tables of inline processes are checked against.
//
// Determinism: the entries land at the same instants and positions for both
// kinds, so the kind never changes what executes when:
//
//   - SleepThen always schedules, even for zero durations; SleepUntilThen
//     and BusyThen return without scheduling when the deadline has passed.
//   - WaitGEThen appends a waiter; the satisfied fast path runs the
//     continuation in place.
//   - RunThen on an inline process steps a bound table from the call.
//     Instant steps run in place, a wait step parks on its counter like
//     WaitGEThen and steps on from its waiter entry, a timed step schedules
//     the next step, and the last timed step schedules the continuation. A
//     table that runs out on instant steps continues the body in place, at
//     that exact queue position. A goroutine process runs the same steps as
//     WaitGEThen/SleepThen/BusyThen and Add calls, which arm the same
//     entries at the same positions.
//
// Inline processes run inside Kernel.next and the ring drains in FIFO order,
// so a continuation executing at its pop position is observationally
// identical to a goroutine resuming at that position: both run their slice
// of process code to the next park before the kernel pops another entry.
// DESIGN.md §11 gives the full argument.
//
// Contract for program bodies: operations may only be called from the
// process's own body or continuations (never from unrelated callbacks), and
// an operation that parks or schedules must be the last thing its caller
// does — the continuation carries the rest. Violations panic.
package sim

// SpawnProgram creates a process whose body is written in explicit-resume
// style and schedules its first execution at the current virtual time, at
// the same queue position Spawn would have used. In program mode (default)
// the process is inline: no goroutine is attached and the kernel runs the
// body and every continuation as queue callbacks. In noProgram reference
// mode the identical body runs on an ordinary goroutine process.
func (k *Kernel) SpawnProgram(name string, fn func(p *Proc)) *Proc {
	return k.SpawnProgramIdx(name, -1, fn)
}

// SpawnProgramIdx is SpawnProgram for indexed process families (see
// Kernel.SpawnIdx): the name renders lazily as fmt.Sprintf(format, id), and
// the body can read id back with Proc.ID.
//
// The body's first activation is the kernel's one start continuation, which
// runs the body of whichever process it is dispatched for (Kernel.cur), so a
// spawn allocates nothing beyond what fn itself captures.
func (k *Kernel) SpawnProgramIdx(format string, id int32, fn func(p *Proc)) *Proc {
	if k.noProgram {
		return k.SpawnIdx(format, id, fn)
	}
	p := k.carveProc(format, id)
	p.inline = true
	p.idx = uint32(len(k.procs))
	k.procs = append(k.procs, p.self)
	if k.startFn == nil {
		k.startFn = k.start
	}
	p.body = fn
	p.cont = k.startFn
	p.armed = true
	k.ring.push(entry{kind: eProc, idx: p.self})
	return p
}

// start is every program's first continuation: run the spawned body of the
// process next() is dispatching.
func (k *Kernel) start() {
	p := k.cur
	fn := p.body
	p.body = nil
	fn(p)
}

// resetFrame clears the program frame of a freshly carved process slot (see
// Kernel.carveProc); a slot reused after Reset may hold a finished — or, on
// a dropped failed kernel, parked — program's state.
func (p *Proc) resetFrame() {
	p.inline, p.armed = false, false
	p.cont = nil
	p.body = nil
}

// run is the kernel's dispatch for an inline process's eProc entry: disarm,
// clear the wait a release left behind (Kernel.wake), and step the process's
// table while it has one. A table that runs out on instant steps, or a
// process with no table, continues the body in place, at this queue
// position, and the program retires if it parked nowhere new. (next()
// returns a goroutine process instead, which runs the continuation on its
// own stack after park returns.) A pending step is armed only while the plan
// holds its table, and stepPlan drops the table before it schedules the
// final continuation. A panicking step or continuation fails the simulation
// like a process panic: next() names the process in Kernel.cur, and Run's
// recover frame reports it.
//
//bgplint:hot
func (p *Proc) run() {
	p.armed, p.waitC = false, nil
	if p.plan.tab != nil && p.stepPlan() {
		return
	}
	p.resume()
	if !p.armed {
		p.finishProgram()
	}
}

// finishProgram drops a completed program from the deadlock-report set, the
// inline analog of the removal in Proc.exec.
func (p *Proc) finishProgram() {
	k := p.k
	last := len(k.procs) - 1
	moved := k.procs[last]
	k.procs[p.idx] = moved
	k.procAt(moved).idx = p.idx
	k.procs = k.procs[:last]
}

// resume runs the stored continuation, clearing the slot first so the
// continuation may park again.
//
//bgplint:hot
func (p *Proc) resume() {
	c := p.cont
	p.cont = nil
	c()
}

// park gives a goroutine process's virtual CPU away until the kernel
// dispatches the resume its operation just armed, then disarms and clears
// the wait a release left behind. The operation calls the continuation
// itself afterwards, from its own frame, so a goroutine's stack grows by one
// frame per parked step. Inline processes never park: the kernel runs their
// continuations.
//
//bgplint:hot
func (p *Proc) park() {
	p.yield()
	p.armed, p.waitC = false, nil
	p.cont = nil
}

// checkIdle guards the tail-call contract: arming a second resume while one
// is pending means the body kept executing past a parking operation. It also
// carries the epoch check for every process operation.
func (p *Proc) checkIdle() {
	p.check()
	if p.armed {
		panic("sim: program operation with a resume already pending on " + p.Name())
	}
}

// schedContAt schedules the stored continuation at absolute time t: on the
// run ring for the current instant, in the queue for a later one.
//
//bgplint:hot
func (p *Proc) schedContAt(t Time) {
	p.armed = true
	if t <= p.k.now {
		p.k.ring.push(entry{kind: eProc, idx: p.self})
		return
	}
	p.k.queue.push(t, entry{kind: eProc, idx: p.self})
}

// nop is the continuation of a blocking call: the caller carries on after
// the operation returns.
func nop() {}

// SleepThen advances the process by d of virtual time and then continues
// with cont. Negative durations are treated as zero, and it always
// schedules, even for zero durations.
//
//bgplint:hot
func (p *Proc) SleepThen(d Time, cont func()) {
	p.checkIdle()
	if d < 0 {
		d = 0
	}
	p.cont = cont
	p.schedContAt(p.k.now + d)
	if !p.inline {
		p.park()
		cont()
	}
}

// SleepUntilThen continues with cont at absolute virtual time t. A time
// already reached runs cont in place without scheduling.
//
//bgplint:hot
func (p *Proc) SleepUntilThen(t Time, cont func()) {
	p.checkIdle()
	if t <= p.k.now {
		cont()
		return
	}
	p.cont = cont
	p.schedContAt(t)
	if !p.inline {
		p.park()
		cont()
	}
}

// BusyThen reserves bytes on pipe, occupies the process until both the
// serialized reservation and the concurrent fixed cost complete, then
// continues with cont — the pattern hw uses for core-driven memory
// operations, where the same bytes occupy both the core and the shared bus:
//
//	done := pipe.Reserve(bytes); SleepUntilThen(max(done, now+concurrent), cont)
//
// It repeats SleepUntilThen's body rather than calling it, so a goroutine
// process's stack grows by one frame per step, not two.
//
//bgplint:hot
func (p *Proc) BusyThen(pipe *Pipe, bytes int, concurrent Time, cont func()) {
	done := pipe.Reserve(bytes)
	if c := p.k.now + concurrent; c > done {
		done = c
	}
	p.checkIdle()
	if done <= p.k.now {
		cont()
		return
	}
	p.cont = cont
	p.schedContAt(done)
	if !p.inline {
		p.park()
		cont()
	}
}

// WaitGEThen continues with cont once c reaches at least v (1 for a
// one-shot counter). A threshold already reached runs cont in place,
// consuming no virtual time and no queue entry.
//
//bgplint:hot
func (p *Proc) WaitGEThen(c *Counter, v int64, cont func()) {
	p.checkIdle()
	c.check()
	if c.v >= v {
		cont()
		return
	}
	p.cont = cont
	p.waitOn(c, v)
	if !p.inline {
		p.park()
		cont()
	}
}

// waitOn parks the process on c until it reaches v, arming its resume in
// c's waiter list. waitC stays set until the process next runs: the release
// that wakes it does not touch the process.
//
//bgplint:hot
func (p *Proc) waitOn(c *Counter, v int64) {
	p.waitC, p.waitGE = c, v
	p.k.blocked++
	p.armed = true
	c.wait(v, entry{kind: eProc, idx: p.self})
}

// RunThen runs b's table from its first step with b's operands, then
// continues with cont: the fused equivalent of the per-step slices the table
// transcribes. The plan copies the table and operands, so b is not read
// again. An inline process steps the table from here, so a table that starts
// with a reached wait or runs out on instant steps runs in place. A
// goroutine process runs the steps one operation at a time (Plan.runInline).
//
//bgplint:hot
func (p *Proc) RunThen(b *Binding, cont func()) {
	p.checkIdle()
	pl := &p.plan
	pl.tab, pl.i, pl.c, pl.pipe = b.Table, 0, b.Counters, b.Pipe
	if !p.inline {
		pl.runInline(p)
		cont()
		return
	}
	p.cont = cont
	if !p.stepPlan() {
		p.cont = nil
		cont()
	}
}

// stepPlan runs table steps from the current position and reports whether
// it armed a resume. Instant steps execute in place, and so does a wait whose
// threshold is reached; an unreached wait parks the process on its counter,
// to step on when it is released. A timed step schedules the table's next
// step — or, for the last step, the stored continuation — at its completion
// time. false means the table ran out on instant steps and the caller
// continues the body at this position. A plan that has scheduled or run its
// last step drops its table, so it reports no pending steps whatever later
// becomes of the table.
//
//bgplint:hot
func (p *Proc) stepPlan() bool {
	k := p.k
	pl := &p.plan
	steps := pl.tab.steps
	for pl.i < len(steps) {
		s := &steps[pl.i]
		pl.i++
		var done Time
		switch s.kind {
		case stepSleep:
			done = k.now + s.d
		case stepBusy:
			done = pl.pipe.Reserve(s.bytes)
			if c := k.now + s.d; c > done {
				done = c
			}
			if done <= k.now {
				continue // mirrors BusyThen's already-elapsed fast path
			}
		case stepAdd:
			pl.counter(s).Add(s.n)
			continue
		case stepWait:
			c := pl.counter(s)
			c.check()
			if c.v >= s.n {
				continue // mirrors WaitGEThen's satisfied fast path
			}
			p.waitOn(c, s.n)
			return true
		case stepPost:
			pl.tab.post.RunPost(s.n, 0)
			continue
		}
		if pl.i == len(steps) {
			pl.tab = nil
			p.schedContAt(done)
		} else {
			p.armed = true
			if done <= k.now {
				k.ring.push(entry{kind: eProc, idx: p.self})
			} else {
				k.queue.push(done, entry{kind: eProc, idx: p.self})
			}
		}
		return true
	}
	pl.tab = nil
	return false
}

// runInline executes the table step by step through the operations above
// with no-op continuations — the literal unfused sequence the fused path
// transcribes. Goroutine processes run every table this way. The cursor
// moves past each step as the step starts, as stepPlan's does, so a capture
// taken while the process is parked in a step hashes only the steps after
// it as pending.
func (pl *Plan) runInline(p *Proc) {
	tab := pl.tab
	for i := range tab.steps {
		s := &tab.steps[i]
		pl.i = i + 1
		switch s.kind {
		case stepSleep:
			p.SleepThen(s.d, nop)
		case stepBusy:
			p.BusyThen(pl.pipe, s.bytes, s.d, nop)
		case stepAdd:
			pl.counter(s).Add(s.n)
		case stepWait:
			p.WaitGEThen(pl.counter(s), s.n, nop)
		case stepPost:
			tab.post.RunPost(s.n, 0)
		}
	}
	pl.tab = nil
}
