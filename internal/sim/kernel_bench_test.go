package sim

import "testing"

// Kernel microbenchmarks. These measure the raw event-scheduling machinery —
// the denominator of every figure regeneration — in events (or yields) per
// second. CI runs them as a smoke test; the numbers recorded in BENCH_SIM.json
// and DESIGN.md §9 come from -benchtime=2s runs.

// BenchmarkAtNow measures the dominant scheduling case: an event scheduled at
// the current virtual time (counter fan-out and wakeups, Proc.run
// rendezvous all take this path).
func BenchmarkAtNow(b *testing.B) {
	k := New()
	fn := func() {}
	b.ReportAllocs()
	// Schedule-and-drain in batches so the queue stays small (as it does in
	// real collectives) rather than growing to b.N.
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			k.At(k.Now(), fn)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtFuture measures heap-path scheduling: every event lands at a
// distinct future timestamp, so nothing can take a same-time fast path.
func BenchmarkAtFuture(b *testing.B) {
	k := New()
	fn := func() {}
	b.ReportAllocs()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		base := k.Now()
		for i := 0; i < m; i++ {
			k.At(base+Time(i+1)*Nanosecond, fn)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddAtFuture is BenchmarkAtFuture through the closure-free
// scheduled-add path (AddAt), the form the DMA completion sites use.
func BenchmarkAddAtFuture(b *testing.B) {
	k := New()
	b.ReportAllocs()
	const batch = 1024
	c := k.NewCounter("c")
	for n := 0; n < b.N; n += batch {
		m := min(batch, b.N-n)
		base := k.Now()
		for i := 0; i < m; i++ {
			k.AddAt(base+Time(i+1)*Nanosecond, c, 1)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

type nopHook struct{}

func (nopHook) RunPost(_, _ int64) {}

// BenchmarkHookAtFuture is BenchmarkAtFuture through the closure-free hook
// path (HookAt), the form the torus network schedules use.
func BenchmarkHookAtFuture(b *testing.B) {
	k := New()
	var h nopHook
	b.ReportAllocs()
	const batch = 1024
	for n := 0; n < b.N; n += batch {
		m := min(batch, b.N-n)
		base := k.Now()
		for i := 0; i < m; i++ {
			k.HookAt(base+Time(i+1)*Nanosecond, h, int64(i), 0)
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAtMixed interleaves same-time and future scheduling the way a
// pipelined collective does: each popped event reschedules one future hop and
// fans out two same-time wakeups.
func BenchmarkAtMixed(b *testing.B) {
	k := New()
	b.ReportAllocs()
	left := b.N
	var step func()
	step = func() {
		if left <= 0 {
			return
		}
		left--
		k.At(k.Now(), nop)
		k.At(k.Now(), nop)
		k.After(10*Nanosecond, step)
	}
	step()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAtInterleaved is the future-event traffic of a collective on a
// large partition: many producers each cycle over several target offsets, so
// pushes to a handful of distinct pending instants arrive interleaved rather
// than grouped by instant. The producers start out of phase and realign
// every cycle, so every pending instant collects pushes from many of them.
func BenchmarkAtInterleaved(b *testing.B) {
	const producers = 4096
	offsets := [...]Time{10 * Nanosecond, 17 * Nanosecond, 23 * Nanosecond, 40 * Nanosecond}
	k := New()
	left := b.N
	b.ReportAllocs()
	for p := 0; p < producers; p++ {
		i := p
		var step func()
		step = func() {
			if left <= 0 {
				return
			}
			left--
			k.After(offsets[i%len(offsets)], step)
			i++
		}
		k.At(0, step)
	}
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// burstProducers is the node count of fig7's 8,192-rank partition.
const burstProducers = 2048

// burst is fig7's future-event traffic: burstProducers nodes step in
// lockstep, and at each step every node schedules a completion 3 ns out and
// its next step 10 ns out, so the queue holds a few shared instants, each a
// same-instant burst of burstProducers entries.
type burst struct {
	k    *Kernel
	left int
}

func (s *burst) RunPost(_, _ int64) {
	if s.left <= 0 {
		return
	}
	s.left -= 2
	s.k.HookAt(s.k.Now()+3*Nanosecond, nopHook{}, 0, 0)
	s.k.HookAt(s.k.Now()+10*Nanosecond, s, 0, 0)
}

// run starts every producer at the current instant and runs until about
// events entries have been scheduled.
func (s *burst) run(events int) error {
	s.left = events
	for range burstProducers {
		s.k.HookAt(s.k.Now(), s, 0, 0)
	}
	return s.k.Run()
}

// BenchmarkAtBurst measures queue traffic in same-instant bursts of
// burstProducers entries, which span several queue blocks each.
func BenchmarkAtBurst(b *testing.B) {
	s := &burst{k: New()}
	b.ReportAllocs()
	if err := s.run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCounterFanOut measures a one-shot counter's fan-out at the scale
// of a collective-network delivery: 4,096 parked processes wait at 1 on a
// stage's counter, one Fire releases them all, and each waits again on the
// next stage's counter, whose list grows through the waiter pool's capacity
// classes. One op is one waiter released.
func BenchmarkCounterFanOut(b *testing.B) {
	const waiters, stages = 4096, 16
	f := newFanOut(New(), waiters)
	f.round(b, stages)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += waiters * stages {
		f.round(b, stages)
	}
}

// BenchmarkCounterWake measures the counter threshold wake path: a producer
// Add releasing one waiter per iteration.
func BenchmarkCounterWake(b *testing.B) {
	k := New()
	c := k.NewCounter("bytes")
	b.ReportAllocs()
	const batch = 1024
	total := int64(0)
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			c.OnGE(total+int64(i)+1, nop)
		}
		for i := 0; i < m; i++ {
			c.Add(1)
		}
		total += int64(m)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProcYield measures a goroutine process parking and resuming: one
// process sleeping zero-duration b.N times, i.e. two kernel<->process
// control transfers per iteration.
func BenchmarkProcYield(b *testing.B) {
	k := New()
	b.ReportAllocs()
	k.Spawn("yielder", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.SleepThen(0, nop)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcWaitGE measures the blocking-wait hot path used by the DMA
// byte counters: a consumer WaitGE released by a producer Add, ping-pong.
func BenchmarkProcWaitGE(b *testing.B) {
	k := New()
	c := k.NewCounter("dma")
	b.ReportAllocs()
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.WaitGEThen(c, int64(i+1), nop)
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
			p.SleepThen(0, nop)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures process creation + first schedule + exit.
func BenchmarkSpawn(b *testing.B) {
	k := New()
	b.ReportAllocs()
	const batch = 256
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			k.Spawn("w", func(p *Proc) {})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProgramYield is BenchmarkProcYield for an inline program: b.N
// zero-duration sleeps executed as queue callbacks, no goroutine involved.
// The gap between this and BenchmarkProcYield is the per-park saving of
// program mode.
func BenchmarkProgramYield(b *testing.B) {
	k := New()
	b.ReportAllocs()
	k.SpawnProgram("yielder", func(p *Proc) {
		var step func(i int)
		step = func(i int) {
			if i == b.N {
				return
			}
			p.SleepThen(0, func() { step(i + 1) })
		}
		step(0)
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProgramWaitGE is BenchmarkProcWaitGE with the consumer as an
// inline program: the producer's Add releases a stored continuation instead
// of a parked goroutine.
func BenchmarkProgramWaitGE(b *testing.B) {
	k := New()
	c := k.NewCounter("dma")
	b.ReportAllocs()
	k.SpawnProgram("consumer", func(p *Proc) {
		var step func(i int)
		step = func(i int) {
			if i == b.N {
				return
			}
			p.WaitGEThen(c, int64(i+1), func() { step(i + 1) })
		}
		step(0)
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Add(1)
			p.SleepThen(0, nop)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnProgram measures inline program creation + first activation +
// exit: no worker checkout, the Proc comes from the kernel arena.
func BenchmarkSpawnProgram(b *testing.B) {
	k := New()
	b.ReportAllocs()
	const batch = 256
	for n := 0; n < b.N; n += batch {
		m := batch
		if b.N-n < m {
			m = b.N - n
		}
		for i := 0; i < m; i++ {
			k.SpawnProgram("w", func(p *Proc) {})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaAlloc measures slab allocation of the kernel-lifetime
// objects (two counters per iteration) — the path every collective state
// constructor takes.
func BenchmarkArenaAlloc(b *testing.B) {
	k := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.NewCounter("e")
		_ = k.NewCounter("c")
	}
}

// BenchmarkBatchedCounterWake measures a threshold crossing that releases 32
// waiters at one instant: the bookkeeping pass plus one bulk ring append.
func BenchmarkBatchedCounterWake(b *testing.B) {
	const waiters = 32
	k := New()
	b.ReportAllocs()
	for n := 0; n < b.N; n += waiters {
		c := k.NewCounter("bytes")
		for i := 0; i < waiters; i++ {
			c.OnGE(1, nop)
		}
		c.Add(1)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSharedPlanChunkLoop is the per-chunk peer loop of an intra-node
// broadcast run from one shared table: a feeder publishes chunks on a
// node counter, and every peer waits for each chunk, polls and copies it on
// the node bus through its own binding. One op is one (peer, chunk).
func BenchmarkSharedPlanChunkLoop(b *testing.B) {
	const peers, chunks, chunk = 16, 64, 4096
	k := New()
	bus := k.NewPipe("bus", 8e9, 0)
	var tab Table
	tab.Reset(nil)
	for i := 1; i <= chunks; i++ {
		tab.WaitBound(0, int64(i*chunk))
		tab.Sleep(20 * Nanosecond)
		tab.Busy(chunk, TransferTime(chunk, 4e9))
	}
	binds := make([]Binding, peers)
	b.ReportAllocs()
	for n := 0; n < b.N; n += peers * chunks {
		k.Reset()
		sw := k.NewCounter("sw")
		k.SpawnProgram("feeder", func(p *Proc) {
			var feed func(i int)
			feed = func(i int) {
				if i < chunks {
					p.SleepThen(500*Nanosecond, func() {
						sw.Add(chunk)
						feed(i + 1)
					})
				}
			}
			feed(0)
		})
		for i := range binds {
			binds[i] = Binding{Table: &tab, Counters: [2]*Counter{sw}, Pipe: bus}
			bi := &binds[i]
			k.SpawnProgramIdx("peer%d", int32(i), func(p *Proc) { p.RunThen(bi, nop) })
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableDispatch is the kernel-dispatch layer on its own, shaped
// like one chunk of an 8,192-rank quad-mode tree broadcast: every program
// process runs one shared 3-step table — wait for its node's counter, a
// poll sleep, a busy copy on its node's bus — through its own Binding, kept
// in a per-rank slab apart from the process slab, as the tree drivers keep
// theirs. A feeder then fills every node's counter at one instant. One op
// is one round of all 8,192 processes: spawn, park, batch release, two table
// steps and the continuation each; ns/proc is the round's cost per process.
func BenchmarkTableDispatch(b *testing.B) {
	const ranks, ppn, chunk = 8192, 4, 4096
	const nodes = ranks / ppn
	k := New()
	buses := make([]*Pipe, nodes)
	for n := range buses {
		buses[n] = k.NewPipe("bus", 8e9, 0)
	}
	var tab Table
	tab.Reset(nil)
	tab.WaitBound(0, chunk)
	tab.Sleep(20 * Nanosecond)
	tab.Busy(chunk, TransferTime(chunk, 4e9))
	binds := make([]Binding, ranks)
	sw := make([]*Counter, nodes)
	body := func(p *Proc) { p.RunThen(&binds[p.ID()], nop) }
	feed := func() {
		for _, c := range sw {
			c.Add(chunk)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		k.Reset()
		for n := range sw {
			sw[n] = k.NewCounterf("node%d.sw", int32(n))
		}
		for i := range binds {
			binds[i] = Binding{Table: &tab, Counters: [2]*Counter{sw[i/ppn]}, Pipe: buses[i/ppn]}
			k.SpawnProgramIdx("rank%d", int32(i), body)
		}
		k.At(Microsecond, feed)
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ranks), "ns/proc")
}
