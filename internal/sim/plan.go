package sim

// A Plan is a short program of timed steps — fixed sleeps, serialized
// resource occupations, counter additions — that a process attaches to a
// wait (WaitGEPlanThen). Without a plan, a per-chunk protocol
// body like "wait for the counter, poll, copy" activates the process once
// per step. For an inline process a plan runs the whole sequence while the
// process stays parked: the kernel executes the intermediate steps as queue
// entries and resumes the body only after the final step, so each step costs
// no continuation closure. A goroutine process runs the same steps one
// operation at a time (Plan.runInline).
//
// A plan either runs the process's private buffer (NewPlan) or a shared
// Table through a Binding (RunThen). The private buffer is single-shot:
// attaching it to a wait consumes it, and it is never a table's storage, so
// building a private plan cannot disturb a table another process runs.
//
// Determinism: a plan is a mechanical transcription of the process slices it
// replaces. Each step performs its kernel-visible actions (Pipe.Reserve,
// Counter.Add, a post handler, a counter wait) at the same virtual instant
// the process would have, and schedules its successor at the moment the
// process would have pushed its own resume, so every queue entry keeps the
// exact (time, seq) position of the unfused execution. The final timed step
// schedules the process's continuation; a plan that ends on an instant step
// continues the body at that exact queue position instead (program.go).
// Goroutine processes run the literal unfused sequence, which the
// determinism stress tests and the program-vs-reference benchmark runs
// compare the fused path against.
type Plan struct {
	steps []planStep // the private buffer
	i     int        // the next step to run, in steps or in run's table
	run   *Binding   // the table being run, or nil for the private buffer
}

// A Table is a read-only step program built once and run by many processes
// at once, each from its own cursor: the per-chunk loop of one protocol
// role, shared by every rank in that role. Beside a private plan's steps it
// has counter waits (a step that parks until a counter reaches a threshold,
// as WaitGEThen would between two slices), post steps, and steps whose
// counter or pipe is left open and supplied by each process's Binding.
//
// A table must not change while a process runs it.
type Table struct {
	steps []planStep
	post  PostHandler // what the table's Post steps call
}

// A Binding supplies the operands a Table leaves open for one process — its
// node-local counters and memory bus — and names the table. The caller owns
// it and keeps it unchanged while the process runs the table.
type Binding struct {
	Table    *Table
	Counters [2]*Counter
	Pipe     *Pipe
}

type planStep struct {
	kind  uint8
	bound uint8 // 0: c is the counter; i > 0: the binding's Counters[i-1]
	d     Time  // stepSleep: duration; stepBusy: concurrent fixed cost
	pipe  *Pipe // stepBusy; nil in a table: the binding's Pipe
	bytes int
	c     *Counter
	n     int64 // stepAdd: amount; stepWait: threshold; stepPost: operand
}

const (
	stepSleep = iota
	stepBusy
	stepAdd
	stepWait
	stepPost
)

// counter resolves a step's counter operand against the plan's binding.
//
//bgplint:hot
func (pl *Plan) counter(s *planStep) *Counter {
	if s.bound != 0 {
		return pl.run.Counters[s.bound-1]
	}
	return s.c
}

// active returns the step list the plan runs: the bound table's, or the
// private buffer.
//
//bgplint:hot
func (pl *Plan) active() []planStep {
	if pl.run != nil {
		return pl.run.Table.steps
	}
	return pl.steps
}

// NewPlan clears and returns p's plan buffer. The returned plan may only be
// attached to waits of p, and only the most recently built plan is valid.
//
//bgplint:hot
func (p *Proc) NewPlan() *Plan {
	p.plan.steps = p.plan.steps[:0]
	p.plan.i = 0
	p.plan.run = nil
	return &p.plan
}

// Sleep appends a fixed delay, the fused equivalent of SleepThen(d, ...).
//
//bgplint:hot
func (pl *Plan) Sleep(d Time) { pl.steps = appendSleep(pl.steps, d) }

// Busy appends a serialized resource occupation, the fused equivalent of
// BusyThen(pipe, bytes, concurrent, ...).
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

func appendSleep(steps []planStep, d Time) []planStep {
	if d < 0 {
		d = 0
	}
	return append(steps, planStep{kind: stepSleep, d: d})
}

// Reset empties t for rebuilding, keeping its capacity but no counter or
// pipe of the old steps; post is the handler its Post steps call. No
// process may be running t.
func (t *Table) Reset(post PostHandler) {
	clear(t.steps)
	t.steps = t.steps[:0]
	t.post = post
}

// Sleep appends a fixed delay, as Plan.Sleep.
func (t *Table) Sleep(d Time) { t.steps = appendSleep(t.steps, d) }

// Busy appends a serialized occupation of the binding's pipe, as Plan.Busy.
func (t *Table) Busy(bytes int, concurrent Time) {
	t.steps = append(t.steps, planStep{kind: stepBusy, bytes: bytes, d: concurrent})
}

// AddBound appends an addition to the binding's Counters[slot], as Plan.Add.
func (t *Table) AddBound(slot int, n int64) {
	t.steps = append(t.steps, planStep{kind: stepAdd, bound: uint8(slot + 1), n: n})
}

// WaitGE appends a wait until c reaches at least v, the fused equivalent of
// WaitGEThen(c, v, ...) between two slices: a reached threshold runs on in
// place, and an unreached one parks the process on c.
func (t *Table) WaitGE(c *Counter, v int64) {
	t.steps = append(t.steps, planStep{kind: stepWait, c: c, n: v})
}

// WaitBound appends a wait until the binding's Counters[slot] reaches at
// least v, as WaitGE.
func (t *Table) WaitBound(slot int, v int64) {
	t.steps = append(t.steps, planStep{kind: stepWait, bound: uint8(slot + 1), n: v})
}

// Post appends an instant call of the table's post handler, RunPost(a, 0).
func (t *Table) Post(a int64) {
	t.steps = append(t.steps, planStep{kind: stepPost, n: a})
}
