package sim

import (
	"strings"
	"testing"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	k := New()
	var order []int
	k.At(30*Nanosecond, func() { order = append(order, 3) })
	k.At(10*Nanosecond, func() { order = append(order, 1) })
	k.At(20*Nanosecond, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30*Nanosecond {
		t.Fatalf("final time = %v, want 30ns", k.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := New()
	var order []int
	for i := 0; i < 100; i++ {
		k.At(5*Nanosecond, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: order[%d] = %d", i, order[i])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := New()
	k.At(10*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5*Nanosecond, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcSleep(t *testing.T) {
	k := New()
	var times []Time
	k.Spawn("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.SleepThen(Microsecond, nop)
		times = append(times, p.Now())
		p.SleepThen(2*Microsecond, nop)
		times = append(times, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Microsecond, 3 * Microsecond}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	k := New()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.SleepThen(10*Nanosecond, nop)
		trace = append(trace, "a1")
		p.SleepThen(20*Nanosecond, nop)
		trace = append(trace, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.SleepThen(15*Nanosecond, nop)
		trace = append(trace, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(trace, ",")
	want := "a0,b0,a1,b1,a2"
	if got != want {
		t.Fatalf("trace = %s, want %s", got, want)
	}
}

func TestEventWaitAndFire(t *testing.T) {
	k := New()
	ev := k.NewCounter("go")
	var woke Time = -1
	k.Spawn("waiter", func(p *Proc) {
		p.WaitGEThen(ev, 1, nop)
		woke = p.Now()
	})
	k.At(7*Microsecond, ev.Fire)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 7*Microsecond {
		t.Fatalf("woke at %v, want 7us", woke)
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	k := New()
	ev := k.NewCounter("done")
	ev.Fire()
	var woke Time = -1
	k.Spawn("late", func(p *Proc) {
		p.SleepThen(3*Nanosecond, nop)
		p.WaitGEThen(ev, 1, nop)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 3*Nanosecond {
		t.Fatalf("woke at %v, want 3ns", woke)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	k := New()
	ev := k.NewCounter("x")
	ev.Fire()
	expectPanic(t, "counter x fired twice", ev.Fire)
}

// TestCounterFire pins the one-shot use of a counter: Fire moves it from 0
// to 1 and nothing else, a wait at 1 on a fired counter runs in place, and
// the steady-state fingerprint tells a fired counter from an unfired one.
func TestCounterFire(t *testing.T) {
	k := New()
	added := k.NewCounter("added")
	added.Add(3)
	expectPanic(t, "counter added fired twice", added.Fire)

	fired := k.NewCounter("fired")
	fired.Fire()
	if !fired.Fired() || fired.Value() != 1 {
		t.Fatalf("fired counter: Fired %v, Value %d; want true, 1", fired.Fired(), fired.Value())
	}
	inPlace := false
	k.SpawnProgram("late", func(p *Proc) {
		p.WaitGEThen(fired, 1, func() { inPlace = true })
		if !inPlace {
			t.Error("WaitGEThen at 1 on a fired counter did not run its continuation in place")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	fp := func(c *Counter) string {
		f := &FP{}
		f.reset(k.Now())
		f.Counter(c)
		return string(f.buf)
	}
	a, b := k.NewCounter("a"), k.NewCounter("b")
	if fp(a) != fp(b) {
		t.Fatal("two unfired counters fingerprint differently")
	}
	b.Fire()
	if fp(a) == fp(b) {
		t.Fatal("a fired and an unfired counter fingerprint identically")
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	ev := k.NewCounter("never")
	k.Spawn("stuck", func(p *Proc) { p.WaitGEThen(ev, 1, nop) })
	err := k.Run()
	if err == nil {
		t.Fatal("deadlock not reported")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error %q does not name the blocked process", err)
	}
}

func TestProcPanicSurfacesAsError(t *testing.T) {
	k := New()
	k.Spawn("bad", func(p *Proc) {
		p.SleepThen(Nanosecond, nop)
		panic("boom")
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("process panic not surfaced, err = %v", err)
	}
}

func TestCounterThresholds(t *testing.T) {
	k := New()
	c := k.NewCounter("bytes")
	var wokeAt []Time
	for _, th := range []int64{100, 50, 150} {
		k.Spawn("w", func(p *Proc) {
			p.WaitGEThen(c, th, nop)
			wokeAt = append(wokeAt, p.Now())
		})
	}
	k.At(Microsecond, func() { c.Add(60) })   // releases threshold 50
	k.At(2*Microsecond, func() { c.Add(40) }) // releases threshold 100
	k.At(3*Microsecond, func() { c.Add(50) }) // releases threshold 150
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Microsecond, 2 * Microsecond, 3 * Microsecond}
	if len(wokeAt) != len(want) {
		t.Fatalf("wokeAt = %v", wokeAt)
	}
	for i := range want {
		if wokeAt[i] != want[i] {
			t.Fatalf("wokeAt = %v, want %v", wokeAt, want)
		}
	}
}

func TestCounterWaitAlreadySatisfied(t *testing.T) {
	k := New()
	c := k.NewCounter("c")
	c.Add(10)
	done := false
	k.Spawn("w", func(p *Proc) {
		p.WaitGEThen(c, 5, nop)
		done = true
		if p.Now() != 0 {
			t.Errorf("satisfied wait consumed time: %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waiter did not run")
	}
}

func TestCounterDecrementPanics(t *testing.T) {
	k := New()
	c := k.NewCounter("c")
	defer func() {
		if recover() == nil {
			t.Error("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestPipeSerialization(t *testing.T) {
	k := New()
	// 1 GB/s pipe: 1000 bytes take 1 us.
	pipe := k.NewPipe("link", 1e9, 0)
	var d1, d2 Time
	k.At(0, func() { d1 = pipe.Reserve(1000) })
	k.At(0, func() { d2 = pipe.Reserve(1000) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != Microsecond {
		t.Fatalf("first transfer done at %v, want 1us", d1)
	}
	if d2 != 2*Microsecond {
		t.Fatalf("second transfer done at %v, want 2us (queued)", d2)
	}
}

func TestPipeLatencyDoesNotOccupy(t *testing.T) {
	k := New()
	pipe := k.NewPipe("link", 1e9, 500*Nanosecond)
	var d1, d2 Time
	k.At(0, func() {
		d1 = pipe.Reserve(1000)
		d2 = pipe.Reserve(1000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != Microsecond+500*Nanosecond {
		t.Fatalf("d1 = %v", d1)
	}
	// Second transfer starts when the wire frees (1us), not after latency.
	if d2 != 2*Microsecond+500*Nanosecond {
		t.Fatalf("d2 = %v", d2)
	}
}

func TestPipeIdleGap(t *testing.T) {
	k := New()
	pipe := k.NewPipe("link", 1e9, 0)
	var d Time
	k.At(0, func() { pipe.Reserve(1000) })
	k.At(10*Microsecond, func() { d = pipe.Reserve(1000) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d != 11*Microsecond {
		t.Fatalf("post-idle transfer done at %v, want 11us", d)
	}
}

func TestPipeReserveFromChaining(t *testing.T) {
	k := New()
	a := k.NewPipe("a", 1e9, 100*Nanosecond)
	b := k.NewPipe("b", 1e9, 100*Nanosecond)
	var done Time
	k.At(0, func() {
		t1 := a.Reserve(1000)
		done = b.ReserveFrom(t1, 1000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 1us on a + 100ns latency, then 1us on b + 100ns latency.
	if done != 2*Microsecond+200*Nanosecond {
		t.Fatalf("chained done = %v", done)
	}
}

func TestPipeStats(t *testing.T) {
	k := New()
	pipe := k.NewPipe("p", 1e9, 0)
	k.At(0, func() {
		pipe.Reserve(500)
		pipe.Reserve(1500)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	bytes, busy, n := pipe.Stats()
	if bytes != 2000 || n != 2 {
		t.Fatalf("stats bytes=%d n=%d", bytes, n)
	}
	if busy != 2*Microsecond {
		t.Fatalf("busy = %v, want 2us", busy)
	}
}

func TestTransferTime(t *testing.T) {
	if got := TransferTime(1000, 1e9); got != Microsecond {
		t.Fatalf("TransferTime = %v", got)
	}
	if got := TransferTime(0, 1e9); got != 0 {
		t.Fatalf("TransferTime(0) = %v", got)
	}
}

func TestProcTransfer(t *testing.T) {
	k := New()
	pipe := k.NewPipe("p", 1e9, 0)
	var at Time
	k.Spawn("mover", func(p *Proc) {
		p.BusyThen(pipe, 2000, 0, nop)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 2*Microsecond {
		t.Fatalf("transfer finished at %v", at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := New()
		pipe := k.NewPipe("shared", 2e9, 50*Nanosecond)
		var finish []Time
		for i := 0; i < 8; i++ {
			k.Spawn("p", func(p *Proc) {
				p.SleepThen(Time(i)*10*Nanosecond, nop)
				p.BusyThen(pipe, 4096, 0, nop)
				finish = append(finish, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return finish
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{5 * Microsecond, "5.000us"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// TestKernelSizeClass pins Kernel inside the 2 KB allocation size class,
// the bound radixQueue caps its bucket count for.
func TestKernelSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Kernel{}); got > 2048 {
		t.Fatalf("Kernel is %d bytes, want at most 2048", got)
	}
}

// TestProcAndStepSize pins the per-process and per-step footprints: a
// million-rank world carves a Proc per rank, and every table step is a
// planStep. A process's table cursor costs it the step slice, the index and
// one binding pointer, not the operands themselves. At 128 B a 256-slot
// process slab fills the 32 KB allocation size class exactly; at 136 B each
// slab would round up to a 40 KB span.
func TestProcAndStepSize(t *testing.T) {
	if got := unsafe.Sizeof(Proc{}); got > 128 {
		t.Errorf("Proc is %d bytes, want at most 128", got)
	}
	if got := unsafe.Sizeof(planStep{}); got > 40 {
		t.Errorf("planStep is %d bytes, want at most 40", got)
	}
}

// TestDispatchedCountsEntries: every entry the kernel runs counts once —
// callbacks, scheduled adds, process resumes — and Reset starts the count
// over.
func TestDispatchedCountsEntries(t *testing.T) {
	k := New()
	c := k.NewCounter("c")
	k.At(5, func() {})
	k.AddAt(7, c, 1)
	k.SpawnProgram("p", func(p *Proc) { p.WaitGEThen(c, 1, func() {}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The callback, the add, the process's start and its wake.
	if got := k.Dispatched(); got != 4 {
		t.Fatalf("Dispatched() = %d, want 4", got)
	}
	k.Reset()
	if got := k.Dispatched(); got != 0 {
		t.Fatalf("Dispatched() after Reset = %d, want 0", got)
	}
}
