package sim

import (
	"bytes"
	"fmt"
	"testing"
)

// Invariants of a dispatch that touches only the process it runs: a release
// leaves the woken processes alone (their waitC is cleared when they next
// run), and a plan owns its operands and drops its table at its last step.

// captureNow fingerprints k's scheduling state at the current instant.
func captureNow(t *testing.T, k *Kernel) *FP {
	t.Helper()
	f := &FP{}
	f.reset(k.now)
	k.steadyWalk(f)
	if f.Refused() {
		t.Fatalf("capture refused: %s", f.reason)
	}
	return f
}

// ringProcs returns the processes the run ring's entries resume, in order.
func ringProcs(k *Kernel) []*Proc {
	var ps []*Proc
	for i := 0; i < k.ring.n; i++ {
		ps = append(ps, k.procAt(k.ring.buf[(k.ring.head+i)&(len(k.ring.buf)-1)].idx))
	}
	return ps
}

// TestCaptureHashesReleasedWaitersAsRunnable: a capture taken while released
// waiters still sit in the run ring, their waitC not yet cleared, hashes
// exactly as it would with every released wait cleared at the release, and
// the counter they waited on is not interned through them. With partial
// set, a third waiter's threshold stays unreached, so the counter is still
// reached through the one process really waiting on it.
func TestCaptureHashesReleasedWaitersAsRunnable(t *testing.T) {
	for _, kind := range procKinds {
		for _, partial := range []bool{false, true} {
			name := fmt.Sprintf("%s/partial=%v", kind.name, partial)
			k := New()
			k.SetNoProgram(kind.noProgram)
			gate := k.NewCounter("gate")
			k.SpawnProgramIdx("w%d", 0, func(p *Proc) { p.WaitGEThen(gate, 1, nop) })
			k.SpawnProgramIdx("w%d", 1, func(p *Proc) {
				p.RunThen(waitTable(gate, 1, [2]*Counter{}, Nanosecond), nop)
			})
			if partial {
				k.SpawnProgramIdx("w%d", 2, func(p *Proc) { p.WaitGEThen(gate, 2, nop) })
			}
			k.At(10, func() {
				gate.Fire()
				released := ringProcs(k)
				if len(released) != 2 {
					t.Fatalf("%s: %d processes in the run ring after the release, want 2", name, len(released))
				}
				for _, p := range released {
					if p.waitC != gate {
						t.Fatalf("%s: the release touched %s (waitC %v)", name, p.Name(), p.waitC)
					}
				}
				got := captureNow(t, k)
				if gate.fpGen == got.gen && !partial {
					t.Errorf("%s: the released waiters interned the counter they waited on", name)
				}
				for _, p := range released {
					p.waitC = nil // the state an eager release left
				}
				if want := captureNow(t, k); !bytes.Equal(got.buf, want.buf) {
					t.Errorf("%s: capture with released waits pending differs from the eagerly cleared one", name)
				}
				if partial {
					gate.Add(1)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// TestDeadlockAfterPartialReleaseNamesParked: after a release that reaches
// some of a counter's waiters, the deadlock report names only the processes
// still parked, each on what it waits for now: a released process that
// finished is gone, and one that parked again is named on its new counter.
func TestDeadlockAfterPartialReleaseNamesParked(t *testing.T) {
	for _, kind := range procKinds {
		k := New()
		k.SetNoProgram(kind.noProgram)
		gate, never := k.NewCounter("gate"), k.NewCounter("never")
		k.SpawnProgram("done", func(p *Proc) { p.WaitGEThen(gate, 1, nop) })
		k.SpawnProgram("moved", func(p *Proc) {
			p.RunThen(waitTable(gate, 1, [2]*Counter{}, Nanosecond), func() { p.WaitGEThen(never, 1, nop) })
		})
		k.SpawnProgram("parked", func(p *Proc) { p.WaitGEThen(gate, 2, nop) })
		k.At(5, gate.Fire)
		err := k.Run()
		want := "sim: deadlock, blocked processes: moved(counter:never>=1) parked(counter:gate>=2)"
		if err == nil || err.Error() != want {
			t.Fatalf("%s: Run() = %v, want %q", kind.name, err, want)
		}
		if k.blocked != 2 {
			t.Fatalf("%s: blocked = %d, want 2", kind.name, k.blocked)
		}
	}
}

// TestFinishedPlanIgnoresRebuiltTable: a process whose table has run out
// reports no pending steps, even after its table is reset and rebuilt
// longer by a later call, for every way a table can end: on a timed step,
// on an instant step, on a wait that parked, and empty.
func TestFinishedPlanIgnoresRebuiltTable(t *testing.T) {
	shapes := []struct {
		name  string
		build func(tab *Table, c *Counter)
	}{
		{"timed", func(tab *Table, _ *Counter) { tab.Sleep(Nanosecond) }},
		{"instant", func(tab *Table, _ *Counter) { tab.Sleep(Nanosecond); tab.AddBound(0, 1) }},
		{"wait", func(tab *Table, c *Counter) { tab.Sleep(Nanosecond); tab.WaitGE(c, 1) }},
		{"empty", func(*Table, *Counter) {}},
	}
	for _, kind := range procKinds {
		for _, sh := range shapes {
			capture := func(rebuild bool) []byte {
				k := New()
				k.SetNoProgram(kind.noProgram)
				c, sink, gate := k.NewCounter("c"), k.NewCounter("sink"), k.NewCounter("gate")
				var tab Table
				tab.Reset(nil)
				sh.build(&tab, c)
				b := &Binding{Table: &tab, Counters: [2]*Counter{sink}}
				k.SpawnProgram("p", func(p *Proc) {
					p.RunThen(b, func() { p.WaitGEThen(gate, 1, nop) })
				})
				k.At(5*Nanosecond, c.Fire)
				var buf []byte
				k.At(10*Nanosecond, func() {
					if rebuild {
						tab.Reset(nil)
						for range 4 {
							tab.Sleep(Nanosecond)
						}
					}
					buf = captureNow(t, k).buf
					gate.Fire()
				})
				if err := k.Run(); err != nil {
					t.Fatalf("%s/%s: %v", kind.name, sh.name, err)
				}
				return buf
			}
			if !bytes.Equal(capture(false), capture(true)) {
				t.Errorf("%s/%s: a finished plan hashes its table's rebuilt steps", kind.name, sh.name)
			}
		}
	}
}

// TestMidTableCaptureHashesPendingStepsOnly: a process parked in a table
// step hashes only the steps after it, in both vehicles. Two tables that
// share their last steps but not what ran before — one parked in its
// second step, the other in its third, each until the same instant — must
// capture to equal streams, and both vehicles must see the same steps
// pending.
func TestMidTableCaptureHashesPendingStepsOnly(t *testing.T) {
	ran := [][]Time{{10, 10}, {4, 6, 10}} // the sleeps before the shared tail
	pending := make(map[bool]int)
	for _, kind := range procKinds {
		var bufs [][]byte
		for _, prefix := range ran {
			k := New()
			k.SetNoProgram(kind.noProgram)
			c := k.NewCounter("c")
			tab := new(Table)
			for _, d := range prefix {
				tab.Sleep(d)
			}
			tab.WaitGE(c, 1)
			tab.Sleep(5)
			p := k.SpawnProgram("p", func(p *Proc) { p.RunThen(&Binding{Table: tab}, nop) })
			k.At(15, func() {
				bufs = append(bufs, captureNow(t, k).buf)
				pl := &p.plan
				if n := len(pl.tab.steps) - pl.i; n != 2 {
					t.Errorf("%s: %d steps pending while parked in the last sleep before the wait, want 2", kind.name, n)
				}
				pending[kind.noProgram] = len(pl.tab.steps) - pl.i
			})
			k.AddAt(30, c, 1)
			if err := k.Run(); err != nil {
				t.Fatalf("%s: %v", kind.name, err)
			}
		}
		if !bytes.Equal(bufs[0], bufs[1]) {
			t.Errorf("%s: captures parked before the same pending steps differ by the steps already run", kind.name)
		}
	}
	if pending[false] != pending[true] {
		t.Errorf("inline process has %d steps pending, goroutine process %d", pending[false], pending[true])
	}
}
