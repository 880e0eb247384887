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

// failingTable binds a table that passes a reached wait, sleeps 1ns and then
// panics: Counter.Add panics on a negative amount.
func failingTable(k *Kernel) *Binding {
	c := k.NewCounter("c")
	tab := new(Table)
	tab.WaitGE(c, 0)
	tab.Sleep(Nanosecond)
	tab.AddBound(0, -1)
	return &Binding{Table: tab, Counters: [2]*Counter{c}}
}

// releasedFailingTable binds a table that waits for a counter an add raises
// at 1ns and then panics, so the step after the wait runs from the
// process's released waiter entry.
func releasedFailingTable(k *Kernel) *Binding {
	gate := releasedAt(k)
	tab := new(Table)
	tab.WaitGE(gate, 1)
	tab.AddBound(0, -1)
	return &Binding{Table: tab, Counters: [2]*Counter{k.NewCounter("c")}}
}

// releasedAt returns a counter an add raises to 1 at 1ns.
func releasedAt(k *Kernel) *Counter {
	c := k.NewCounter("gate")
	k.AddAt(Nanosecond, c, 1)
	return c
}

// TestDispatchPanicMatrix pins the scheduler's single recover frame: a panic
// escaping code next() dispatches is caught by Run's loop. Code run on an
// inline process's behalf (a continuation, a table step, either from the
// queue or released from a counter's waiter list) fails the run as that
// process's panic; a hook (At, OnGE, HookAt, OnGEHook) or a scheduled add
// panics out of Run with its own value. A goroutine process's table steps
// run on its own goroutine, where Proc.exec converts a panic into the same
// process failure. Every case leaves the kernel failed, refusing Reset.
//
// A goroutine process "host" sleeps across the panic instant, so the panic
// always strikes with a goroutine parked in Run's loop. Each subtest is
// named for the goroutine the panic strikes on, and the panic site's stack
// confirms it.
func TestDispatchPanicMatrix(t *testing.T) {
	type scenario struct {
		name string
		// arm schedules the panic at 1ns. The panic site stores its stack in
		// *stack when it can; procPanicError carries one for process panics.
		arm func(k *Kernel, stack *string)
		// proc is true when the panic belongs to process "victim".
		proc bool
		// value is what a callback panic must panic out of Run with.
		value string
		// frame is the function the panic's stack must pass through.
		frame string
	}
	const loop, exec = "(*Kernel).loop", "(*Proc).exec"
	dispatcher := map[string]string{loop: "run_loop", exec: "process_goroutine"}
	boom := func(stack *string) func() {
		return func() {
			*stack = string(debug.Stack())
			panic("boom")
		}
	}
	scenarios := []scenario{
		{name: "inline continuation", proc: true, frame: loop, arm: func(k *Kernel, stack *string) {
			k.SpawnProgram("victim", func(p *Proc) { p.SleepThen(Nanosecond, boom(stack)) })
		}},
		{name: "inline plan step", proc: true, frame: loop, arm: func(k *Kernel, _ *string) {
			b := failingTable(k)
			k.SpawnProgram("victim", func(p *Proc) { p.RunThen(b, nop) })
		}},
		{name: "goroutine plan step", proc: true, frame: exec, arm: func(k *Kernel, _ *string) {
			b := failingTable(k)
			k.Spawn("victim", func(p *Proc) { p.RunThen(b, nop) })
		}},
		{name: "inline released plan step", proc: true, frame: loop, arm: func(k *Kernel, _ *string) {
			b := releasedFailingTable(k)
			k.SpawnProgram("victim", func(p *Proc) { p.RunThen(b, nop) })
		}},
		{name: "At closure", value: "boom", frame: loop, arm: func(k *Kernel, stack *string) {
			k.At(Nanosecond, boom(stack))
		}},
		{name: "OnGE closure", value: "boom", frame: loop, arm: func(k *Kernel, stack *string) {
			releasedAt(k).OnGE(1, boom(stack))
		}},
		{name: "HookAt handler", value: "boom", frame: loop, arm: func(k *Kernel, stack *string) {
			k.HookAt(Nanosecond, panicHook{boom(stack)}, 0, 0)
		}},
		{name: "OnGEHook handler", value: "boom", frame: loop, arm: func(k *Kernel, stack *string) {
			releasedAt(k).OnGEHook(1, panicHook{boom(stack)}, 0, 0)
		}},
		{name: "AddAt add", value: "sim: counter c decremented", frame: loop, arm: func(k *Kernel, _ *string) {
			k.AddAt(Nanosecond, k.NewCounter("c"), -1)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name+"/"+dispatcher[sc.frame], func(t *testing.T) {
			k := New()
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
					t.Fatalf("process panic panicked out of Run: %v", repanic)
				}
				if err == nil || !strings.Contains(err.Error(), "process victim panicked") {
					t.Fatalf("Run error %v, want process victim panicked", err)
				}
				if stack == "" {
					stack = err.Error()
				}
			} else {
				if err != nil {
					t.Fatalf("callback panic returned error %v, want a panic", err)
				}
				if got := fmt.Sprint(repanic); got != sc.value {
					t.Fatalf("Run panicked with %q, want %q", got, sc.value)
				}
			}
			if stack != "" && !strings.Contains(stack, sc.frame) {
				t.Fatalf("panic stack does not pass through %s:\n%s", sc.frame, stack)
			}
			if k.failure == nil {
				t.Fatal("kernel not marked failed")
			}
			expectPanic(t, "Reset with live processes", k.Reset)
		})
	}
}
