package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Proc is a simulated process scheduled by its kernel: a coroutine backed by
// its own goroutine (Spawn) or an inline program with no goroutine
// (SpawnProgram, see program.go). Exactly one process body
// executes at a time per kernel, so process code may freely touch simulation
// state without locking. A process consumes virtual time only through the
// explicit-resume operations in program.go (SleepThen, WaitGEThen, ...).
type Proc struct {
	k *Kernel
	// self is the process's dense arena index (arena.go): the value queue
	// entries carry instead of a *Proc, and stable for the kernel's lifetime.
	// epoch stamps the lease the process belongs to; like counters, a Proc
	// handle must not be used across Kernel.Reset.
	self  uint32
	epoch uint32

	// Program frame (see program.go), placed beside k and self because every
	// operation and dispatch touches all of them. inline marks a process
	// with no backing goroutine: the kernel runs its continuations. cont
	// holds the continuation pending behind the current sleep, wait, or
	// table; armed records that a resume (an eProc entry naming self) is
	// pending somewhere in the queues or waiter lists, so the activation
	// wrapper can tell "parked" from "finished".
	inline bool
	armed  bool
	idx    uint32 // position in k.procs, for O(1) removal on exit
	cont   func()

	// Blocked-on state for deadlock reporting: the counter and threshold
	// the process waits for, nil when it is not blocked. The reason string
	// is built lazily only when a deadlock is actually reported, keeping
	// fmt off the wait hot path.
	waitC  *Counter
	waitGE int64

	// plan is the process's cursor into the table it runs (see plan.go).
	// Its next step is scheduled as an eProc entry naming self — no
	// pre-bound closure — and Proc.run steps the table while plan holds it.
	plan Plan

	// body is a spawned program's entry point until its first activation,
	// which the kernel's one bound start continuation runs (program.go).
	body func(p *Proc)

	// name and id are the flyweight process name (see label): SpawnIdx
	// processes share one format string ("rank%d") and render it with their
	// id lazily in Name(), so a million-rank world formats no per-process
	// name unless a failure actually reports one. A negative id makes name
	// the plain name.
	name string
	id   int32

	// fpGen/fpID intern this process into a steady-state fingerprint walk
	// (steady.go): when fpGen equals the walking capture's generation the
	// process is already labelled fpID; any other value means unseen. The
	// stamp lives on the process so a rack-scale capture interns millions of
	// processes with two word writes instead of a map insert.
	fpID  uint32
	fpGen uint64
}

// goSlot is the state only a goroutine process uses, kept in the kernel by
// process index (Kernel.goSlots) rather than in every Proc, so the slots of
// inline programs do not carry it.
type goSlot struct {
	// gate receives the virtual-CPU token: Run's loop sends to resume the
	// process's goroutine. It is made on the slot's first goroutine spawn
	// and kept with the slot: a slot is re-carved only after a clean Reset,
	// when every goroutine that received on it has exited.
	gate chan struct{}
	// released marks a goroutine process of a failed or deadlocked kernel
	// whose gate was closed to end its goroutine (Kernel.releaseGoroutines).
	released bool
}

// goSlot returns the goroutine state of process p.
func (k *Kernel) goSlot(p *Proc) *goSlot { return &k.goSlots[p.self] }

// check panics when the handle predates the kernel's current epoch: its slab
// slot belongs to the next lease now (or will shortly).
func (p *Proc) check() {
	if p.epoch != p.k.epoch {
		panic("sim: process handle (" + p.Name() + ") used across Kernel.Reset")
	}
}

// procPanicError formats a panic escaping process code — a process body or a
// fused table step — as the simulation failure Run reports.
func procPanicError(name string, r any) error {
	return fmt.Errorf("sim: process %s panicked: %v\n%s", name, r, debug.Stack())
}

// Spawn creates a process running fn on a goroutine of its own and
// schedules its first execution at the current virtual time. fn runs to
// completion unless it panics, which aborts the whole simulation with an
// error from Kernel.Run. The goroutine exits when fn returns.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnIdx(name, -1, fn)
}

// SpawnIdx is Spawn for indexed process families: the process renders its
// name lazily as fmt.Sprintf(format, id) (id >= 0; a negative id makes
// format the plain name), so spawning a million ranks formats no name
// strings. Scheduling is identical to Spawn.
//
// This is the one goroutine launch site in package sim (enforced by the
// bgplint rawgoroutine analyzer): the goroutine executes simulation code
// only while it holds the virtual-CPU token its gate carries, so it adds no
// real concurrency to the kernel.
func (k *Kernel) SpawnIdx(format string, id int32, fn func(p *Proc)) *Proc {
	p := k.carveProc(format, id)
	for int(p.self) >= len(k.goSlots) {
		k.goSlots = append(k.goSlots, goSlot{})
	}
	g := k.goSlot(p)
	if g.gate == nil {
		g.gate = make(chan struct{})
	}
	g.released = false
	p.idx = uint32(len(k.procs))
	k.procs = append(k.procs, p.self)
	k.ring.push(entry{kind: eProc, idx: p.self})
	go p.exec(g.gate, fn)
	return p
}

// carveProc carves a process slot from the kernel's arena and reinitializes
// every field a previous lease may have left behind (slots are reused after
// Kernel.Reset). The program frame is cleared in resetFrame (program.go),
// the one file allowed to touch those fields; the plan drops its table, so
// a reused slot holds no old steps.
func (k *Kernel) carveProc(format string, id int32) *Proc {
	p, self := k.arena.newProc()
	p.k, p.name, p.id = k, format, id
	p.self, p.epoch = self, k.epoch
	p.waitC, p.waitGE = nil, 0
	p.plan = Plan{}
	p.resetFrame()
	return p
}

// exec is a goroutine process's whole life: wait for the first token, run
// the body, convert a panic into a simulation failure, drop the finished
// process from the deadlock-report set, and hand the token back to Run's
// loop as the goroutine's last act. A process released by a dead kernel
// (releaseGoroutines) exits at once, before its first activation or from
// yield through runtime.Goexit, and hands the token to the releaser without
// touching the kernel state.
func (p *Proc) exec(gate chan struct{}, fn func(p *Proc)) {
	if _, ok := <-gate; !ok {
		p.k.sched <- struct{}{}
		return
	}
	defer func() {
		if p.k.goSlot(p).released {
			p.k.sched <- struct{}{}
			return
		}
		if r := recover(); r != nil {
			p.k.fail(procPanicError(p.Name(), r))
		}
		k := p.k
		last := len(k.procs) - 1
		moved := k.procs[last]
		k.procs[p.idx] = moved
		k.procAt(moved).idx = p.idx
		k.procs = k.procs[:last]
		k.sched <- struct{}{}
	}()
	fn(p)
}

// yield hands the virtual CPU back to Run's loop and blocks the goroutine
// until the loop dispatches the process's next resume, or ends the
// goroutine if the kernel releases it instead.
func (p *Proc) yield() {
	gate := p.k.goSlot(p).gate // read under the token: spawns may grow goSlots
	p.k.sched <- struct{}{}
	if _, ok := <-gate; !ok {
		runtime.Goexit()
	}
}

// releaseGoroutines ends the goroutines of a failed or deadlocked run's
// live goroutine processes, which would otherwise stay parked on their
// gates for the life of the program. A dead kernel is never resumed (Reset
// refuses it), so each goroutine exits without running more simulation
// code; the processes stay in the deadlock-report set. Each release waits
// for the goroutine's hand-back, so none is still unwinding through
// process code when Run returns.
func (k *Kernel) releaseGoroutines() {
	for _, pi := range k.procs {
		if p := k.procAt(pi); !p.inline {
			if g := k.goSlot(p); !g.released {
				g.released = true
				close(g.gate)
				<-k.sched
			}
		}
	}
}

// blockedOn describes what the process is waiting on, or "" if it is not
// blocked. Used only for deadlock reports.
func (p *Proc) blockedOn() string {
	if p.waitC == nil {
		return ""
	}
	return fmt.Sprintf("counter:%s>=%d", p.waitC.name.String(), p.waitGE)
}

// Name returns the process name given at Spawn, or the SpawnIdx format
// applied to its id (formatted on demand; see the name field).
func (p *Proc) Name() string { return label{s: p.name, a: p.id, b: -1}.String() }

// ID returns the id the process was spawned with by SpawnIdx or
// SpawnProgramIdx, -1 for a plainly named one: a body shared by a process
// family finds its member's own state by it.
func (p *Proc) ID() int32 { return p.id }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the kernel's current virtual time.
func (p *Proc) Now() Time { return p.k.now }
