package sim

import (
	"slices"
	"strings"
	"testing"
)

// procKinds names the two ways a SpawnProgram body runs: inline, with tables
// fused into queue entries, and on a goroutine process (noProgram), which
// runs each table's steps one operation at a time.
var procKinds = []struct {
	name      string
	noProgram bool
}{{"inline", false}, {"goroutine", true}}

// runBoth executes the same scenario with inline (fused) and goroutine
// (unfused) processes and returns both final clocks; callers assert they
// match, which is the table contract: fused steps land at exactly the
// unfused instants. The scenario spawns its processes with SpawnProgram.
func runBoth(t *testing.T, scenario func(k *Kernel)) (fused, unfused Time) {
	t.Helper()
	run := func(noProgram bool) Time {
		k := New()
		k.SetNoProgram(noProgram)
		scenario(k)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	return run(false), run(true)
}

// waitTable binds a table that waits until c reaches v and then sleeps each
// of ds in turn, with counters as the binding's Counters.
func waitTable(c *Counter, v int64, counters [2]*Counter, ds ...Time) *Binding {
	tab := new(Table)
	tab.WaitGE(c, v)
	for _, d := range ds {
		tab.Sleep(d)
	}
	return &Binding{Table: tab, Counters: counters}
}

func TestWaitPlanRunsStepsWhileParked(t *testing.T) {
	for _, kind := range procKinds {
		k := New()
		k.SetNoProgram(kind.noProgram)
		ev := k.NewCounter("go")
		c := k.NewCounter("sig")
		var addedAt, resumedAt Time
		b := waitTable(ev, 1, [2]*Counter{c}, 30*Nanosecond)
		b.Table.AddBound(0, 1)
		b.Table.Sleep(10 * Nanosecond)
		k.SpawnProgram("w", func(p *Proc) {
			p.RunThen(b, func() { resumedAt = p.Now() })
		})
		k.SpawnProgram("obs", func(p *Proc) {
			p.WaitGEThen(c, 1, func() { addedAt = p.Now() })
		})
		k.At(100*Nanosecond, ev.Fire)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if addedAt != 130*Nanosecond {
			t.Fatalf("%s: table Add landed at %v, want 130ns", kind.name, addedAt)
		}
		if resumedAt != 140*Nanosecond {
			t.Fatalf("%s: process resumed at %v, want 140ns", kind.name, resumedAt)
		}
	}
}

// TestWaitPlanEmptyIsWait: a table of one wait is exactly WaitGEThen. The
// process resumes at the same instant and queue position, ahead of a waiter
// parked after it, and the kernel dispatches as many entries.
func TestWaitPlanEmptyIsWait(t *testing.T) {
	for _, kind := range procKinds {
		run := func(table bool) ([]string, Time, int64) {
			k := New()
			k.SetNoProgram(kind.noProgram)
			ev := k.NewCounter("go")
			b := waitTable(ev, 1, [2]*Counter{})
			var order []string
			var at Time
			k.SpawnProgram("w", func(p *Proc) {
				done := func() { at = p.Now(); order = append(order, "w") }
				if table {
					p.RunThen(b, done)
				} else {
					p.WaitGEThen(ev, 1, done)
				}
			})
			k.SpawnProgram("later", func(p *Proc) {
				p.WaitGEThen(ev, 1, func() { order = append(order, "later") })
			})
			k.At(5*Nanosecond, ev.Fire)
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			return order, at, k.Dispatched()
		}
		order, at, n := run(true)
		wantOrder, wantAt, wantN := run(false)
		if !slices.Equal(order, wantOrder) || at != wantAt || n != wantN {
			t.Fatalf("%s: one-wait table resumed %v at %v after %d entries; WaitGEThen %v at %v after %d",
				kind.name, order, at, n, wantOrder, wantAt, wantN)
		}
		if at != 5*Nanosecond {
			t.Fatalf("%s: resumed at %v, want 5ns", kind.name, at)
		}
	}
}

func TestWaitPlanFiredEventRunsInline(t *testing.T) {
	for _, kind := range procKinds {
		k := New()
		k.SetNoProgram(kind.noProgram)
		ev := k.NewCounter("done")
		ev.Fire()
		var at Time
		b := waitTable(ev, 1, [2]*Counter{}, 7*Nanosecond)
		k.SpawnProgram("w", func(p *Proc) {
			p.RunThen(b, func() { at = p.Now() })
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if at != 7*Nanosecond {
			t.Fatalf("%s: resumed at %v, want 7ns (inline steps must still run)", kind.name, at)
		}
	}
}

func TestWaitGEPlanSatisfiedRunsInline(t *testing.T) {
	for _, kind := range procKinds {
		k := New()
		k.SetNoProgram(kind.noProgram)
		c := k.NewCounter("c")
		c.Add(3)
		sig := k.NewCounter("sig")
		var at Time
		b := waitTable(c, 2, [2]*Counter{sig}, 4*Nanosecond)
		b.Table.AddBound(0, 2)
		k.SpawnProgram("w", func(p *Proc) {
			p.RunThen(b, func() { at = p.Now() })
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if at != 4*Nanosecond || sig.Value() != 2 {
			t.Fatalf("%s: at = %v, sig = %d; want 4ns, 2", kind.name, at, sig.Value())
		}
	}
}

// TestPlanInstantFinalResumeOrder pins where a table that exhausts on an
// instant step resumes its process: at exactly the queue position the
// unfused resume occupies, before waiters the fire released after it. An
// inline process continues in place; a goroutine process resumes from its
// wait's eProc entry and runs the instant step itself.
func TestPlanInstantFinalResumeOrder(t *testing.T) {
	for _, kind := range procKinds {
		k := New()
		k.SetNoProgram(kind.noProgram)
		ev := k.NewCounter("go")
		c := k.NewCounter("sig")
		var order []string
		b := waitTable(ev, 1, [2]*Counter{c})
		b.Table.AddBound(0, 1) // instant final step: no timed tail
		k.SpawnProgram("planner", func(p *Proc) {
			p.RunThen(b, func() { order = append(order, "planner") })
		})
		k.SpawnProgram("later", func(p *Proc) {
			p.WaitGEThen(ev, 1, func() { order = append(order, "later") })
		})
		k.At(Nanosecond, ev.Fire)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := [2]string{"planner", "later"}
		if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
			t.Fatalf("%s: order = %v, want %v", kind.name, order, want)
		}
		if c.Value() != 1 {
			t.Fatalf("%s: table Add not applied", kind.name)
		}
	}
}

func TestPlanBusyMatchesUnfused(t *testing.T) {
	scenario := func(k *Kernel) {
		pipe := k.NewPipe("bus", 2e9, 0)
		c := k.NewCounter("chunks")
		// A feeder adds chunks over time; two consumers occupy the shared
		// pipe per chunk, once through a table and once via a contending
		// BusyThen, so Reserve order (and thus completion times) depends on
		// exact scheduling instants.
		k.SpawnProgram("feeder", func(p *Proc) {
			var feed func(i int)
			feed = func(i int) {
				if i < 8 {
					p.SleepThen(20*Nanosecond, func() {
						c.Add(1)
						feed(i + 1)
					})
				}
			}
			feed(0)
		})
		tab := new(Table)
		for i := int64(1); i <= 8; i++ {
			tab.WaitGE(c, i)
			tab.Busy(4096, 10*Nanosecond)
		}
		b := &Binding{Table: tab, Pipe: pipe}
		k.SpawnProgram("planwait", func(p *Proc) { p.RunThen(b, nop) })
		k.SpawnProgram("rival", func(p *Proc) {
			var contend func(i int)
			contend = func(i int) {
				if i < 8 {
					p.SleepThen(15*Nanosecond, func() {
						p.BusyThen(pipe, 2048, 0, func() { contend(i + 1) })
					})
				}
			}
			contend(0)
		})
	}
	fused, unfused := runBoth(t, scenario)
	if fused != unfused {
		t.Fatalf("fused final time %v != unfused %v", fused, unfused)
	}
}

// TestPlanStepPanicFailsSimulation: a goroutine process's table step runs on
// its own goroutine, so the panic ends that goroutine and removes the
// process; the failed kernel must still refuse Reset.
func TestPlanStepPanicFailsSimulation(t *testing.T) {
	k := New()
	ev := k.NewCounter("go")
	c := k.NewCounter("c")
	b := waitTable(ev, 1, [2]*Counter{c}, Nanosecond)
	b.Table.AddBound(0, -1) // Counter.Add panics on negative n
	k.Spawn("bad", func(p *Proc) { p.RunThen(b, nop) })
	k.At(Nanosecond, ev.Fire)
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "process bad panicked") {
		t.Fatalf("step panic not surfaced as process failure, err = %v", err)
	}
	expectPanic(t, "Reset of a failed kernel", k.Reset)
}

// TestPlanDeadlockNamesParkedProc checks that a process parked on a table's
// wait still appears in the deadlock report, for both process kinds.
func TestPlanDeadlockNamesParkedProc(t *testing.T) {
	for _, kind := range procKinds {
		k := New()
		k.SetNoProgram(kind.noProgram)
		ev := k.NewCounter("never")
		b := waitTable(ev, 1, [2]*Counter{}, Nanosecond)
		k.SpawnProgram("stuckplan", func(p *Proc) { p.RunThen(b, nop) })
		err := k.Run()
		if err == nil || !strings.Contains(err.Error(), "stuckplan") || !strings.Contains(err.Error(), "never") {
			t.Fatalf("%s: deadlock report %v does not name the table-parked process", kind.name, err)
		}
	}
}
