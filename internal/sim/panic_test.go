package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
)

// panicHook is a PostHandler whose delivery runs fn.
type panicHook struct{ fn func() }

func (h panicHook) RunPost(a, b int64) { h.fn() }

// TestDispatchPanicMatrix pins the scheduler's single recover frame: a panic
// escaping code next() dispatches is caught by whichever of its two callers
// ran it, Run's loop or a goroutine process's handoff, and converted the
// same way by both. Code run on a process's behalf (an inline continuation,
// an inline or goroutine plan step) fails the run as that process's panic;
// a callback (eFn, eHook, eAdd) re-panics out of Run with its own value.
// Either way the kernel is left failed and refuses Reset.
//
// The dispatcher is chosen by construction. A goroutine process "host"
// sleeps across the panic instant: it takes the token first, so with
// direct handoff every later entry up to its wake-up runs inside its
// handoff, and in noHandoff mode its yield returns the token to Run's loop,
// which dispatches everything. The panic site's stack confirms which.
//
// The inline continuation on Run's loop and the goroutine plan step on
// handoff are covered by TestProgramPanicFailsRun and
// TestPlanStepPanicFailsSimulation.
func TestDispatchPanicMatrix(t *testing.T) {
	type scenario struct {
		name string
		// arm schedules the panic at 1ns. The panic site stores its stack in
		// *stack when it can; procPanicError carries one for process panics.
		arm func(k *Kernel, stack *string)
		// proc is true when the panic belongs to process "victim".
		proc bool
		// value is what a callback panic must re-panic with.
		value string
		// covered names the dispatcher an older test already pins.
		covered string
	}
	boom := func(stack *string) func() {
		return func() {
			*stack = string(debug.Stack())
			panic("boom")
		}
	}
	scenarios := []scenario{
		{name: "inline continuation", proc: true, covered: "run loop", arm: func(k *Kernel, stack *string) {
			k.SpawnProgram("victim", func(p *Proc) { p.SleepThen(Nanosecond, boom(stack)) })
		}},
		{name: "inline plan step", proc: true, arm: func(k *Kernel, _ *string) {
			c := k.NewCounter("c")
			k.SpawnProgram("victim", func(p *Proc) {
				pl := p.NewPlan()
				pl.Sleep(Nanosecond)
				pl.Add(c, -1) // Counter.Add panics on negative n
				p.WaitGEPlanThen(c, 0, pl, nop)
			})
		}},
		{name: "goroutine plan step", proc: true, covered: "handoff", arm: func(k *Kernel, _ *string) {
			c := k.NewCounter("c")
			k.Spawn("victim", func(p *Proc) {
				pl := p.NewPlan()
				pl.Sleep(Nanosecond)
				pl.Add(c, -1)
				p.WaitGEPlanThen(c, 0, pl, nop)
			})
		}},
		{name: "eFn callback", value: "boom", arm: func(k *Kernel, stack *string) {
			k.At(Nanosecond, boom(stack))
		}},
		{name: "eHook callback", value: "boom", arm: func(k *Kernel, stack *string) {
			k.HookAt(Nanosecond, panicHook{boom(stack)}, 0, 0)
		}},
		{name: "eAdd callback", value: "sim: counter c decremented", arm: func(k *Kernel, _ *string) {
			k.AddAt(Nanosecond, k.NewCounter("c"), -1)
		}},
	}
	for _, sc := range scenarios {
		for _, viaHandoff := range []bool{false, true} {
			dispatcher := "run loop"
			if viaHandoff {
				dispatcher = "handoff"
			}
			if dispatcher == sc.covered {
				continue
			}
			t.Run(sc.name+"/"+dispatcher, func(t *testing.T) {
				k := New()
				k.noHandoff = !viaHandoff
				k.Spawn("host", func(p *Proc) { p.SleepThen(10*Nanosecond, nop) })
				var stack string
				sc.arm(k, &stack)

				var repanic any
				var err error
				func() {
					defer func() { repanic = recover() }()
					err = k.Run()
				}()

				if sc.proc {
					if repanic != nil {
						t.Fatalf("process panic re-panicked out of Run: %v", repanic)
					}
					if err == nil || !strings.Contains(err.Error(), "process victim panicked") {
						t.Fatalf("Run error %v, want process victim panicked", err)
					}
					if stack == "" {
						stack = err.Error()
					}
				} else {
					if err != nil {
						t.Fatalf("callback panic returned error %v, want a re-panic", err)
					}
					if got := fmt.Sprint(repanic); got != sc.value {
						t.Fatalf("Run re-panicked with %q, want %q", got, sc.value)
					}
				}
				if stack != "" {
					if got := strings.Contains(stack, "(*Kernel).handoff"); got != viaHandoff {
						t.Fatalf("panic dispatched through handoff = %v, want %v:\n%s", got, viaHandoff, stack)
					}
				}
				if k.failure == nil {
					t.Fatal("kernel not marked failed")
				}
				expectPanic(t, "Reset with live processes", k.Reset)
			})
		}
	}
}
