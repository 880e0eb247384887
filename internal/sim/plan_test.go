package sim

import (
	"strings"
	"testing"
)

// runBoth executes the same scenario on a fused and a noFuse (reference)
// kernel and returns both final clocks; callers assert they match, which is
// the plan contract: fused steps land at exactly the unfused instants.
func runBoth(t *testing.T, scenario func(k *Kernel)) (fused, unfused Time) {
	t.Helper()
	run := func(noFuse bool) Time {
		k := New()
		k.noFuse = noFuse
		scenario(k)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now()
	}
	return run(false), run(true)
}

func TestWaitPlanRunsStepsWhileParked(t *testing.T) {
	k := New()
	ev := k.NewEvent("go")
	c := k.NewCounter("sig")
	var addedAt, resumedAt Time
	k.Spawn("w", func(p *Proc) {
		pl := p.NewPlan()
		pl.Sleep(30 * Nanosecond)
		pl.Add(c, 1)
		pl.Sleep(10 * Nanosecond)
		p.WaitPlanThen(ev, pl, nop)
		resumedAt = p.Now()
	})
	k.Spawn("obs", func(p *Proc) {
		p.WaitGEThen(c, 1, nop)
		addedAt = p.Now()
	})
	k.At(100*Nanosecond, ev.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if addedAt != 130*Nanosecond {
		t.Fatalf("plan Add landed at %v, want 130ns", addedAt)
	}
	if resumedAt != 140*Nanosecond {
		t.Fatalf("process resumed at %v, want 140ns", resumedAt)
	}
}

func TestWaitPlanEmptyIsWait(t *testing.T) {
	k := New()
	ev := k.NewEvent("go")
	var at Time
	k.Spawn("w", func(p *Proc) {
		p.WaitPlanThen(ev, p.NewPlan(), nop)
		at = p.Now()
	})
	k.At(5*Nanosecond, ev.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*Nanosecond {
		t.Fatalf("resumed at %v, want 5ns", at)
	}
}

func TestWaitPlanFiredEventRunsInline(t *testing.T) {
	k := New()
	ev := k.NewEvent("done")
	ev.Fire()
	var at Time
	k.Spawn("w", func(p *Proc) {
		pl := p.NewPlan()
		pl.Sleep(7 * Nanosecond)
		p.WaitPlanThen(ev, pl, nop)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 7*Nanosecond {
		t.Fatalf("resumed at %v, want 7ns (inline steps must still run)", at)
	}
}

func TestWaitGEPlanSatisfiedRunsInline(t *testing.T) {
	k := New()
	c := k.NewCounter("c")
	c.Add(3)
	sig := k.NewCounter("sig")
	var at Time
	k.Spawn("w", func(p *Proc) {
		pl := p.NewPlan()
		pl.Sleep(4 * Nanosecond)
		pl.Add(sig, 2)
		p.WaitGEPlanThen(c, 2, pl, nop)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 4*Nanosecond || sig.Value() != 2 {
		t.Fatalf("at = %v, sig = %d; want 4ns, 2", at, sig.Value())
	}
}

// TestPlanInstantFinalResumeOrder pins the Kernel.fused contract: a plan that
// exhausts on an instant step resumes its process at exactly the queue
// position the unfused resume would occupy — before waiters the event
// released after it.
func TestPlanInstantFinalResumeOrder(t *testing.T) {
	for _, noFuse := range []bool{false, true} {
		k := New()
		k.noFuse = noFuse
		ev := k.NewEvent("go")
		c := k.NewCounter("sig")
		var order []string
		k.Spawn("planner", func(p *Proc) {
			pl := p.NewPlan()
			pl.Add(c, 1) // instant final step: no timed tail
			p.WaitPlanThen(ev, pl, nop)
			order = append(order, "planner")
		})
		k.Spawn("later", func(p *Proc) {
			p.WaitThen(ev, nop)
			order = append(order, "later")
		})
		k.At(Nanosecond, ev.Fire)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		want := [2]string{"planner", "later"}
		if len(order) != 2 || order[0] != want[0] || order[1] != want[1] {
			t.Fatalf("noFuse=%v: order = %v, want %v", noFuse, order, want)
		}
		if c.Value() != 1 {
			t.Fatalf("noFuse=%v: plan Add not applied", noFuse)
		}
	}
}

func TestPlanBusyMatchesUnfused(t *testing.T) {
	scenario := func(k *Kernel) {
		pipe := k.NewPipe("bus", 2e9, 0)
		c := k.NewCounter("chunks")
		// A feeder adds chunks over time; two consumers occupy the shared
		// pipe per chunk, once fused and once via a contending BusyThen, so
		// Reserve order (and thus completion times) depends on exact
		// scheduling instants.
		k.Spawn("feeder", func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.SleepThen(20*Nanosecond, nop)
				c.Add(1)
			}
		})
		k.Spawn("fusedwait", func(p *Proc) {
			for i := int64(1); i <= 8; i++ {
				pl := p.NewPlan()
				pl.Busy(pipe, 4096, 10*Nanosecond)
				p.WaitGEPlanThen(c, i, pl, nop)
			}
		})
		k.Spawn("rival", func(p *Proc) {
			for i := 0; i < 8; i++ {
				p.SleepThen(15*Nanosecond, nop)
				p.BusyThen(pipe, 2048, 0, nop)
			}
		})
	}
	fused, unfused := runBoth(t, scenario)
	if fused != unfused {
		t.Fatalf("fused final time %v != unfused %v", fused, unfused)
	}
}

func TestPlanStepPanicFailsSimulation(t *testing.T) {
	k := New()
	ev := k.NewEvent("go")
	c := k.NewCounter("c")
	k.Spawn("bad", func(p *Proc) {
		pl := p.NewPlan()
		pl.Sleep(Nanosecond)
		pl.Add(c, -1) // Counter.Add panics on negative n
		p.WaitPlanThen(ev, pl, nop)
	})
	k.At(Nanosecond, ev.Fire)
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "process bad panicked") {
		t.Fatalf("step panic not surfaced as process failure, err = %v", err)
	}
	expectPanic(t, "Reset with live processes", k.Reset)
}

// TestPlanDeadlockNamesParkedProc checks that a process parked on a
// plan-attached wait still appears in the deadlock report: the waiter entry
// carries both the continuation and the process.
func TestPlanDeadlockNamesParkedProc(t *testing.T) {
	k := New()
	ev := k.NewEvent("never")
	k.Spawn("stuckplan", func(p *Proc) {
		pl := p.NewPlan()
		pl.Sleep(Nanosecond)
		p.WaitPlanThen(ev, pl, nop)
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "stuckplan") || !strings.Contains(err.Error(), "never") {
		t.Fatalf("deadlock report %v does not name the plan-parked process", err)
	}
}
