package sim

import (
	"fmt"
	"strings"
	"testing"
)

// expectPanic runs fn and requires it to panic with a message containing
// want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

// TestResetReplaysIdentically is the reuse half of the determinism
// guarantee: the stress workload replayed on a Reset kernel must produce a
// trace bit-identical to the fresh kernel's, in every execution mode. Two
// reuses per mode also cover reuse-of-a-reuse.
func TestResetReplaysIdentically(t *testing.T) {
	const seed = 17
	for _, mode := range stressModes {
		k := New()
		fresh := stressTraceOn(t, seed, mode, k)
		if len(fresh) == 0 {
			t.Fatalf("%s: empty trace", mode.name)
		}
		for reuse := 1; reuse <= 2; reuse++ {
			k.Reset()
			got := stressTraceOn(t, seed, mode, k)
			if len(got) != len(fresh) {
				t.Fatalf("%s reuse %d: %d records, fresh has %d",
					mode.name, reuse, len(got), len(fresh))
			}
			for i := range fresh {
				if got[i] != fresh[i] {
					t.Fatalf("%s reuse %d diverges from fresh at record %d: %+v vs %+v",
						mode.name, reuse, i, got[i], fresh[i])
				}
			}
		}
	}
}

// TestResetDeadlockReportMatchesFresh checks the failure surface survives
// reuse too: a deadlock on a reused kernel names the same processes, waits,
// and times as on a fresh one.
func TestResetDeadlockReportMatchesFresh(t *testing.T) {
	deadlock := func(k *Kernel) error {
		ev := k.NewCounter("missing")
		c := k.NewCounter("starved")
		k.Spawn("waiter.ev", func(p *Proc) {
			p.SleepThen(Nanosecond, nop)
			p.WaitGEThen(ev, 1, nop)
		})
		k.Spawn("waiter.ge", func(p *Proc) { p.WaitGEThen(c, 3, nop) })
		k.SpawnProgram("waiter.prog", func(p *Proc) {
			p.WaitGEThen(ev, 1, func() { t.Error("waiter.prog resumed") })
		})
		return k.Run()
	}
	fresh := New()
	base := deadlock(fresh)
	if base == nil {
		t.Fatal("expected deadlock")
	}

	reused := New()
	c := reused.NewCounter("warmup")
	reused.Spawn("warm", func(p *Proc) {
		p.SleepThen(Nanosecond, nop)
		c.Add(1)
	})
	if err := reused.Run(); err != nil {
		t.Fatalf("warmup run: %v", err)
	}
	reused.Reset()
	if err := deadlock(reused); err == nil || err.Error() != base.Error() {
		t.Fatalf("reused kernel deadlock report %q != fresh %q", err, base)
	}
}

// TestResetStaleHandlesPanic: counters (one-shot or not) and procs are
// carved from the kernel arena, so a handle kept across Reset points into recycled
// storage. Every use must fail loudly and deterministically instead of
// corrupting the next run.
func TestResetStaleHandlesPanic(t *testing.T) {
	k := New()
	ev := k.NewCounter("stale.ev")
	c := k.NewCounter("stale.c")
	var p *Proc
	k.SpawnProgram("stale.p", func(q *Proc) { p = q })
	k.Spawn("fire", func(q *Proc) {
		q.SleepThen(Nanosecond, nop)
		ev.Fire()
		c.Add(1)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	k.Reset()

	expectPanic(t, "counter handle (stale.ev) used across Kernel.Reset", func() { ev.Fire() })
	expectPanic(t, "counter handle (stale.c) used across Kernel.Reset", func() { c.Add(1) })
	expectPanic(t, "counter handle (stale.c) used across Kernel.Reset", func() { k.AddAt(0, c, 1) })
	expectPanic(t, "process handle (stale.p) used across Kernel.Reset", func() {
		p.SleepThen(Nanosecond, func() {})
	})

	// Fresh handles carved after the Reset work normally.
	ev2 := k.NewCounter("fresh.ev")
	k.Spawn("fresh", func(q *Proc) { ev2.Fire() })
	if err := k.Run(); err != nil {
		t.Fatalf("post-reset run: %v", err)
	}
	if !ev2.Fired() {
		t.Fatal("fresh one-shot counter did not fire")
	}
}

// TestResetDropsPendingEntries: callbacks, scheduled adds and hooks queued
// before a Run that never happened must not leak into the next lease.
func TestResetDropsPendingEntries(t *testing.T) {
	k := New()
	var log []string
	h := &logHook{k: k, log: &log}
	c := k.NewCounter("c")
	k.At(0, func() { log = append(log, "now") })
	k.At(Microsecond, func() { log = append(log, "later") })
	k.AddAt(Microsecond, c, 1)
	k.HookAt(2*Microsecond, h, 1, 2)
	k.Reset()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 0 || k.Now() != 0 {
		t.Fatalf("pre-Reset entries ran after Reset: %v, clock %v", log, k.Now())
	}
}

// TestResetRefusesLiveProcs: a deadlocked kernel still owns parked process
// goroutines whose stacks reference arena storage; Reset must refuse to pull
// the arena out from under them.
func TestResetRefusesLiveProcs(t *testing.T) {
	k := New()
	ev := k.NewCounter("never")
	k.Spawn("stuck", func(p *Proc) { p.WaitGEThen(ev, 1, nop) })
	if err := k.Run(); err == nil {
		t.Fatal("expected deadlock")
	}
	expectPanic(t, "Reset with live processes", func() { k.Reset() })
}

// TestResetRefusesFailedKernel: a failed run with no process left behind —
// a lone goroutine process whose body panicked and exited, or a callback
// that panicked out of Run — must still refuse Reset, which would otherwise
// clear the failure and hand the kernel's half-applied state to the next
// lease.
func TestResetRefusesFailedKernel(t *testing.T) {
	k := New()
	k.Spawn("bad", func(p *Proc) {
		p.SleepThen(Nanosecond, nop)
		panic("boom")
	})
	if err := k.Run(); err == nil || !strings.Contains(err.Error(), "process bad panicked: boom") {
		t.Fatalf("got %v, want process-panic failure", err)
	}
	expectPanic(t, "Reset of a failed kernel", k.Reset)

	k = New()
	k.At(Nanosecond, func() { panic("boom") })
	expectPanic(t, "boom", func() { _ = k.Run() })
	expectPanic(t, "Reset of a failed kernel", k.Reset)
}

// TestResetDuringRunPanics: Reset from inside a callback would rewind the
// clock mid-simulation.
func TestResetDuringRunPanics(t *testing.T) {
	k := New()
	k.At(Nanosecond, func() { k.Reset() })
	expectPanic(t, "Reset during Run", func() { _ = k.Run() })
}
