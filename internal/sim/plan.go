package sim

// A Plan is a process's cursor into the shared Table it runs (RunThen).
// A table is a short program of timed steps — fixed sleeps, serialized
// resource occupations, counter additions, counter waits and post steps —
// that a process runs while it stays parked. Without a table, a per-chunk
// protocol body like "wait for the counter, poll, copy" activates the process
// once per step. For an inline process the kernel executes the steps as
// queue entries and resumes the body only after the final step, so each step
// costs no continuation closure. A goroutine process runs the same steps one
// operation at a time (Plan.runInline).
//
// Determinism: a table is a mechanical transcription of the process slices
// it replaces. Each step performs its kernel-visible actions (Pipe.Reserve,
// Counter.Add, a post handler, a counter wait) at the same virtual instant
// the process would have, and schedules its successor at the moment the
// process would have pushed its own resume, so every queue entry keeps the
// exact (time, seq) position of the unfused execution. The final timed step
// schedules the process's continuation; a table that ends on an instant step
// continues the body at that exact queue position instead (program.go).
// Goroutine processes run the literal unfused sequence, which the
// determinism stress tests and the program-vs-reference benchmark runs
// compare the fused path against.
//
// RunThen copies the table and its operands out of the caller's Binding, so
// a step touches the process it runs and the table, never the binding.
type Plan struct {
	tab  *Table      // the table being run; nil once it has run out
	i    int         // the next step to run
	c    [2]*Counter // the binding's counters
	pipe *Pipe       // the binding's pipe
}

// A Table is a read-only step program built once and run by many processes
// at once, each from its own cursor: the per-chunk loop of one protocol
// role, shared by every rank in that role. A wait step parks until a counter
// reaches a threshold, as WaitGEThen would between two slices; a busy step
// occupies the Binding's pipe, and a bound step's counter is left open and
// supplied by each process's Binding.
//
// A table must not change while a process runs it.
type Table struct {
	steps []planStep
	post  PostHandler // what the table's Post steps call
}

// A Binding supplies the operands a Table leaves open for one process — its
// node-local counters and memory bus — and names the table. RunThen copies
// it into the process's Plan, so the caller may reuse or drop it as soon as
// RunThen is called.
type Binding struct {
	Table    *Table
	Counters [2]*Counter
	Pipe     *Pipe
}

type planStep struct {
	kind  uint8
	bound uint8 // 0: c is the counter; i > 0: the binding's Counters[i-1]
	d     Time  // stepSleep: duration; stepBusy: concurrent fixed cost
	bytes int   // stepBusy: bytes on the binding's Pipe
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

// counter resolves a step's counter operand against the plan's operands.
//
//bgplint:hot
func (pl *Plan) counter(s *planStep) *Counter {
	if s.bound != 0 {
		return pl.c[s.bound-1]
	}
	return s.c
}

// Reset empties t for rebuilding, keeping its capacity but no counter of
// the old steps; post is the handler its Post steps call. No
// process may be running t.
func (t *Table) Reset(post PostHandler) {
	clear(t.steps)
	t.steps = t.steps[:0]
	t.post = post
}

// Sleep appends a fixed delay, the fused equivalent of SleepThen(d, ...).
func (t *Table) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	t.steps = append(t.steps, planStep{kind: stepSleep, d: d})
}

// Busy appends a serialized occupation of the binding's pipe, the fused
// equivalent of BusyThen(pipe, bytes, concurrent, ...).
func (t *Table) Busy(bytes int, concurrent Time) {
	t.steps = append(t.steps, planStep{kind: stepBusy, bytes: bytes, d: concurrent})
}

// AddBound appends an addition to the binding's Counters[slot] executed at
// the instant the preceding step completes, the fused equivalent of
// c.Add(n) between two blocking steps.
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
