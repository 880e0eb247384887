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
// Determinism: a plan is a mechanical transcription of the process slices it
// replaces. Each step performs its kernel-visible actions (Pipe.Reserve,
// Counter.Add) at the same virtual instant the process would have, and
// schedules its successor at the moment the process would have pushed its own
// resume, so every queue entry keeps the exact (time, seq) position of the
// unfused execution. The final timed step schedules the process's
// continuation; a plan that ends on an instant step continues the body at
// that exact queue position instead (program.go). Goroutine processes run
// the literal unfused sequence, which the determinism stress tests and the
// program-vs-reference benchmark runs compare the fused path against.
//
// Plans are built through the owning process's reusable buffer (NewPlan) and
// are single-shot: attaching one to a wait consumes it.
type Plan struct {
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
	p.plan.steps = p.plan.steps[:0]
	p.plan.i = 0
	return &p.plan
}

// Sleep appends a fixed delay, the fused equivalent of SleepThen(d, ...).
//
//bgplint:hot
func (pl *Plan) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	pl.steps = append(pl.steps, planStep{kind: stepSleep, d: d})
}

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
