package sim

import (
	"fmt"
	"slices"
	"testing"
)

// logHook records every RunPost as "h<a>.<b>@<now>".
type logHook struct {
	k   *Kernel
	log *[]string
}

func (h *logHook) RunPost(a, b int64) {
	*h.log = append(*h.log, fmt.Sprintf("h%d.%d@%v", a, b, h.k.Now()))
}

// hookOrderScenario interleaves scheduled hooks and counter-threshold hooks
// with plain callbacks, scheduled adds and a process parked on the same
// counter, all contending for the same instants. With hooks=false every
// hook is replaced by the equivalent closure (At / OnGE) logging the same
// label, so the two runs must produce identical logs.
func hookOrderScenario(t *testing.T, hooks bool) []string {
	t.Helper()
	k := New()
	var log []string
	h := &logHook{k: k, log: &log}
	c := k.NewCounter("c")
	at := func(tm Time, a int64) {
		if hooks {
			k.HookAt(tm, h, a, 0)
		} else {
			k.At(tm, func() { h.RunPost(a, 0) })
		}
	}
	onGE := func(v, a int64) {
		if hooks {
			c.OnGEHook(v, h, a, 1)
		} else {
			c.OnGE(v, func() { h.RunPost(a, 1) })
		}
	}
	note := func(s string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", s, k.Now())) }
	}

	onGE(2, 1)
	onGE(1, 2)
	k.Spawn("p", func(p *Proc) {
		p.WaitGEThen(c, 2, nop)
		note("p")()
	})
	onGE(2, 3)
	at(10, 4)
	k.At(10, func() {
		note("fn")()
		at(k.Now(), 7) // same instant: the run ring
		onGE(1, 8)     // already satisfied: scheduled now
		at(k.Now()+5, 9)
	})
	k.AddAt(10, c, 1)
	at(10, 5)
	k.AddAt(10, c, 1)
	at(10, 6)
	k.At(15, note("late"))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Released hook waiters must not touch the parked-process bookkeeping:
	// Reset refuses a kernel whose blocked count is off.
	k.Reset()
	return log
}

func TestHookAtOrderMatchesClosures(t *testing.T) {
	want := hookOrderScenario(t, false)
	got := hookOrderScenario(t, true)
	if !slices.Equal(got, want) {
		t.Fatalf("hook order diverges from closures:\n got  %v\n want %v", got, want)
	}
	if len(want) != 12 {
		t.Fatalf("scenario ran %d entries, want 12: %v", len(want), want)
	}
}

// slotOf returns the hook-table slot holding the pending hook tagged a.
func slotOf(k *Kernel, a int64) int {
	for i, hk := range k.hooks.s {
		if hk.h != nil && hk.a == a {
			return i
		}
	}
	return -1
}

// cascadeHook schedules two children per RunPost until its depth operand
// reaches zero, recording the slot each child was carved in.
type cascadeHook struct {
	k     *Kernel
	next  int64
	slots []int
}

func (h *cascadeHook) schedule(t Time, depth int64) {
	h.next++
	tag := h.next<<8 | depth
	h.k.HookAt(t, h, tag, 0)
	h.slots = append(h.slots, slotOf(h.k, tag))
}

func (h *cascadeHook) RunPost(tag, _ int64) {
	if depth := tag & 0xff; depth > 0 {
		h.schedule(h.k.Now(), depth-1)
		h.schedule(h.k.Now()+Nanosecond, depth-1)
	}
}

func hookSlotTrace(t *testing.T, k *Kernel) []int {
	t.Helper()
	h := &cascadeHook{k: k}
	for i := 0; i < 3; i++ {
		h.schedule(Time(i+1)*Nanosecond, 3)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return h.slots
}

func TestHookSlotsRecycleLIFO(t *testing.T) {
	k := New()
	fresh := hookSlotTrace(t, k)
	if len(fresh) != 3*15 {
		t.Fatalf("cascade scheduled %d hooks, want 45", len(fresh))
	}
	for i := 0; i < 2; i++ {
		k.Reset()
		if got := hookSlotTrace(t, k); !slices.Equal(got, fresh) {
			t.Fatalf("reuse %d: slots %v, fresh kernel %v", i+1, got, fresh)
		}
	}

	// LIFO: the slot released last is the first one carved again.
	k.Reset()
	h := &logHook{k: k, log: new([]string)}
	for i := int64(0); i < 3; i++ {
		k.HookAt(Time(i+1), h, i, 0)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.HookAt(k.Now()+1, h, 9, 0)
	if got := slotOf(k, 9); got != 2 {
		t.Fatalf("carved slot %d after releasing 0,1,2; want 2 (LIFO)", got)
	}
}

func TestHookAtPastPanics(t *testing.T) {
	k := New()
	h := &logHook{k: k, log: new([]string)}
	k.At(10*Nanosecond, func() {
		expectPanic(t, "before now", func() { k.HookAt(5*Nanosecond, h, 0, 0) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPendingHookRefusesCapture(t *testing.T) {
	k := New()
	k.HookAt(10, &logHook{k: k, log: new([]string)}, 0, 0)
	det := NewSteady(k, nil)
	if det.Capture() {
		t.Fatal("capture matched with no previous capture")
	}
	if det.LastRefusal() == "" {
		t.Fatal("pending eHook entry did not refuse the capture")
	}
}
