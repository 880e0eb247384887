package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// The stress tests generate a randomized pipeline workload from a seed and
// run it under every scheduling mode the kernel supports:
//
//   - inline programs with fused tables (the production configuration)
//   - noProgram: SpawnProgram bodies run on goroutine-backed processes,
//     whose tables run their steps one operation at a time
//   - noExtrap: no steady-state detector is armed
//   - both reference modes together
//
// The modes are pure execution changes; the (time, seq) event order must be
// bit-identical, so the recorded traces must match exactly.

type stressRec struct {
	proc  int
	round int
	at    Time
}

// stressMode names one kernel scheduling configuration.
type stressMode struct {
	name      string
	noProgram bool
	noExtrap  bool
}

// stressModes is the full {program, extrap} matrix; the production
// configuration comes first and is the comparison base. In the extrap modes
// a live Steady detector fingerprints the kernel every round (the workload
// is aperiodic, so it never matches): the matrix pins that fingerprint
// captures are observably side-effect-free, since the noextrap modes run
// without any detector and every trace must stay bit-identical.
var stressModes = func() []stressMode {
	var ms []stressMode
	for _, noExtrap := range []bool{false, true} {
		for _, noProgram := range []bool{false, true} {
			name := "program"
			if noProgram {
				name = "goroutine-programs"
			}
			if noExtrap {
				name += "+noextrap"
			} else {
				name += "+extrap"
			}
			ms = append(ms, stressMode{name: name, noProgram: noProgram, noExtrap: noExtrap})
		}
	}
	return ms
}()

// stressWorkload builds a deterministic random pipeline: proc 0 produces one
// token per round (with random sleeps and pipe transfers in between), and
// each later proc waits for its predecessor's token — randomly via a counter
// threshold or a per-round one-shot counter, and randomly as a table of that
// wait and random steps or as plain operations — then performs its own
// random body and signals its successor. Every random choice is drawn
// up-front from the seeded source, so all modes execute the same program.
func stressTrace(t *testing.T, seed int64, mode stressMode) []stressRec {
	t.Helper()
	return stressTraceOn(t, seed, mode, New())
}

// stressTraceOn runs the stress workload on a caller-supplied kernel, so the
// reset tests can replay the identical program on a reused kernel.
func stressTraceOn(t *testing.T, seed int64, mode stressMode, k *Kernel) []stressRec {
	t.Helper()
	const (
		procs  = 12
		rounds = 20
	)
	rng := rand.New(rand.NewSource(seed))
	k.noProgram = mode.noProgram
	// In extrap modes, fingerprint the kernel at every round boundary of
	// proc 0. The aperiodic workload never matches, so nothing is ever
	// extrapolated; the capture itself must leave no observable trace.
	var det *Steady
	if !mode.noExtrap {
		det = NewSteady(k, nil)
	}

	pipes := []*Pipe{
		k.NewPipe("busA", 2e9, 10*Nanosecond),
		k.NewPipe("busB", 6.8e9, 0),
	}
	scratch := k.NewCounter("scratch")
	tokens := make([]*Counter, procs)
	evs := make([][]*Counter, procs)
	for i := range tokens {
		tokens[i] = k.NewCounter(fmt.Sprintf("tok%d", i))
		evs[i] = make([]*Counter, rounds)
		for r := range evs[i] {
			evs[i][r] = k.NewCounter(fmt.Sprintf("ev%d.%d", i, r))
		}
	}

	// Per-(proc, round) program, generated before any proc runs.
	type roundProg struct {
		useEvent  bool // wait on evs[i][r] instead of tokens[i-1] >= r+1
		usePlan   bool // run the wait and the steps as a table
		signalEv  bool // successor waits on a one-shot counter this round
		steps     []planStep
		pipe      int // the steps' busy pipe
		run       Binding
		bodySleep Time
		bodyPipe  int // -1: no transfer
		bodyBytes int
	}
	prog := make([][]roundProg, procs)
	for i := 0; i < procs; i++ {
		prog[i] = make([]roundProg, rounds)
		for r := 0; r < rounds; r++ {
			p := &prog[i][r]
			p.useEvent = rng.Intn(3) == 0
			p.usePlan = rng.Intn(2) == 0
			p.pipe = rng.Intn(len(pipes))
			nsteps := rng.Intn(4)
			for s := 0; s < nsteps; s++ {
				switch rng.Intn(3) {
				case 0:
					p.steps = append(p.steps, planStep{kind: stepSleep, d: Time(rng.Intn(50)) * Nanosecond})
				case 1:
					p.steps = append(p.steps, planStep{
						kind: stepBusy, bytes: 256 + rng.Intn(8192), d: Time(rng.Intn(30)) * Nanosecond,
					})
				case 2:
					// A fused Add to a side counter: exercises stepAdd (and
					// its waiter release path) without perturbing the token
					// protocol.
					p.steps = append(p.steps, planStep{kind: stepAdd, c: scratch, n: 1})
				}
			}
			if i > 0 && p.usePlan {
				tab := new(Table)
				if p.useEvent {
					tab.WaitGE(evs[i][r], 1)
				} else {
					tab.WaitGE(tokens[i-1], int64(r+1))
				}
				for _, st := range p.steps {
					switch st.kind {
					case stepSleep:
						tab.Sleep(st.d)
					case stepBusy:
						tab.Busy(st.bytes, st.d)
					case stepAdd:
						tab.AddBound(0, st.n)
					}
				}
				p.run = Binding{Table: tab, Counters: [2]*Counter{scratch}, Pipe: pipes[p.pipe]}
			}
			p.bodySleep = Time(rng.Intn(40)) * Nanosecond
			p.bodyPipe = rng.Intn(len(pipes)+1) - 1
			p.bodyBytes = 512 + rng.Intn(4096)
		}
	}
	// A proc's wait mode must agree with its predecessor's signal mode.
	for i := 1; i < procs; i++ {
		for r := 0; r < rounds; r++ {
			prog[i-1][r].signalEv = prog[i][r].useEvent
		}
	}
	// A seeded subset of procs runs as explicit-resume programs (SpawnProgram)
	// instead of blocking goroutine bodies, so the matrix exercises program
	// procs interleaved with goroutine procs in every mode.
	useProgram := make([]bool, procs)
	for i := range useProgram {
		useProgram[i] = rng.Intn(2) == 0
	}

	var trace []stressRec
	for i := 0; i < procs; i++ {
		// blockingBody is the blocking-style transcription: the operations
		// with no-op continuations, on a goroutine-backed process.
		blockingBody := func(p *Proc) {
			for r := 0; r < rounds; r++ {
				pr := &prog[i][r]
				if i > 0 {
					if pr.usePlan {
						p.RunThen(&pr.run, nop)
					} else {
						if pr.useEvent {
							p.WaitGEThen(evs[i][r], 1, nop)
						} else {
							p.WaitGEThen(tokens[i-1], int64(r+1), nop)
						}
						for s := range pr.steps {
							st := &pr.steps[s]
							switch st.kind {
							case stepSleep:
								p.SleepThen(st.d, nop)
							case stepBusy:
								done := pipes[pr.pipe].Reserve(st.bytes)
								if c := p.Now() + st.d; c > done {
									done = c
								}
								p.SleepUntilThen(done, nop)
							case stepAdd:
								st.c.Add(st.n)
							}
						}
					}
				}
				p.SleepThen(pr.bodySleep, nop)
				if pr.bodyPipe >= 0 {
					p.BusyThen(pipes[pr.bodyPipe], pr.bodyBytes, 0, nop)
				}
				if i == 0 && det != nil && det.Capture() {
					t.Fatalf("seed %d mode %s: aperiodic workload fingerprinted as steady", seed, mode.name)
				}
				trace = append(trace, stressRec{proc: i, round: r, at: p.Now()})
				if i < procs-1 {
					if pr.signalEv {
						evs[i+1][r].Fire()
					}
					// The token always advances so counter-mode rounds after
					// event-mode rounds still see threshold r+1.
					tokens[i].Add(1)
				}
			}
		}
		// programBody is the identical protocol in explicit-resume form.
		programBody := func(p *Proc) {
			var round func(r int)
			var runSteps func(r, s int)
			var runBody func(r int)
			finishRound := func(r int) {
				pr := &prog[i][r]
				if i == 0 && det != nil && det.Capture() {
					t.Fatalf("seed %d mode %s: aperiodic workload fingerprinted as steady", seed, mode.name)
				}
				trace = append(trace, stressRec{proc: i, round: r, at: p.Now()})
				if i < procs-1 {
					if pr.signalEv {
						evs[i+1][r].Fire()
					}
					tokens[i].Add(1)
				}
				round(r + 1)
			}
			runBody = func(r int) {
				pr := &prog[i][r]
				p.SleepThen(pr.bodySleep, func() {
					if pr.bodyPipe >= 0 {
						p.BusyThen(pipes[pr.bodyPipe], pr.bodyBytes, 0, func() { finishRound(r) })
					} else {
						finishRound(r)
					}
				})
			}
			runSteps = func(r, s int) {
				pr := &prog[i][r]
				if s == len(pr.steps) {
					runBody(r)
					return
				}
				st := &pr.steps[s]
				switch st.kind {
				case stepSleep:
					p.SleepThen(st.d, func() { runSteps(r, s+1) })
				case stepBusy:
					p.BusyThen(pipes[pr.pipe], st.bytes, st.d, func() { runSteps(r, s+1) })
				case stepAdd:
					st.c.Add(st.n)
					runSteps(r, s+1)
				}
			}
			round = func(r int) {
				if r == rounds {
					return
				}
				pr := &prog[i][r]
				if i == 0 {
					runBody(r)
					return
				}
				if pr.usePlan {
					p.RunThen(&pr.run, func() { runBody(r) })
					return
				}
				if pr.useEvent {
					p.WaitGEThen(evs[i][r], 1, func() { runSteps(r, 0) })
				} else {
					p.WaitGEThen(tokens[i-1], int64(r+1), func() { runSteps(r, 0) })
				}
			}
			round(0)
		}
		if useProgram[i] {
			k.SpawnProgram(fmt.Sprintf("p%d", i), programBody)
		} else {
			k.Spawn(fmt.Sprintf("p%d", i), blockingBody)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d mode %s: %v", seed, mode.name, err)
	}
	return trace
}

// TestStressModeEquivalence is the scheduler's determinism obligation:
// inline programs, fused plans and steady-state captures must not change
// what executes when, only how it is driven.
func TestStressModeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		base := stressTrace(t, seed, stressModes[0])
		if len(base) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
		for _, mode := range stressModes[1:] {
			got := stressTrace(t, seed, mode)
			if len(got) != len(base) {
				t.Fatalf("seed %d: %s trace has %d records, %s has %d",
					seed, mode.name, len(got), stressModes[0].name, len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("seed %d: %s diverges from %s at record %d: %+v vs %+v",
						seed, mode.name, stressModes[0].name, i, got[i], base[i])
				}
			}
		}
	}
}

// TestStressRerunStable re-runs one workload in the production mode and
// requires identical traces: nothing a finished kernel leaves behind may
// leak into a later kernel's scheduling decisions.
func TestStressRerunStable(t *testing.T) {
	const seed = 42
	a := stressTrace(t, seed, stressModes[0])
	for rerun := 0; rerun < 3; rerun++ {
		b := stressTrace(t, seed, stressModes[0])
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rerun %d diverges at record %d: %+v vs %+v", rerun, i, a[i], b[i])
			}
		}
	}
}

// TestDeadlockReportIdenticalAcrossModes deadlocks the same workload under
// every mode: the report (which names each blocked process and what it waits
// on) is part of the deterministic surface too.
func TestDeadlockReportIdenticalAcrossModes(t *testing.T) {
	build := func(mode stressMode) error {
		k := New()
		k.noProgram = mode.noProgram
		c := k.NewCounter("starved")
		ev := k.NewCounter("missing")
		k.Spawn("waiter.ev", func(p *Proc) {
			p.SleepThen(Nanosecond, nop)
			p.WaitGEThen(ev, 1, nop)
		})
		k.Spawn("waiter.ge", func(p *Proc) { p.WaitGEThen(c, 7, nop) })
		k.Spawn("waiter.plan", func(p *Proc) {
			p.RunThen(waitTable(c, 9, [2]*Counter{}, Nanosecond), nop)
		})
		k.SpawnProgram("waiter.prog", func(p *Proc) {
			p.SleepThen(Nanosecond, func() {
				p.WaitGEThen(ev, 1, func() { t.Error("waiter.prog resumed") })
			})
		})
		k.SpawnProgram("waiter.progplan", func(p *Proc) {
			p.RunThen(waitTable(c, 11, [2]*Counter{}, Nanosecond), func() { t.Error("waiter.progplan resumed") })
		})
		k.Spawn("finisher", func(p *Proc) {
			p.SleepThen(5*Nanosecond, nop)
			c.Add(1)
		})
		return k.Run()
	}
	base := build(stressModes[0])
	if base == nil {
		t.Fatal("expected deadlock")
	}
	for _, want := range []string{
		"waiter.ev(counter:missing>=1)", "waiter.ge(counter:starved>=7)", "waiter.plan(counter:starved>=9)",
		"waiter.prog(counter:missing>=1)", "waiter.progplan(counter:starved>=11)",
	} {
		if !strings.Contains(base.Error(), want) {
			t.Fatalf("deadlock report %q missing %q", base, want)
		}
	}
	for _, mode := range stressModes[1:] {
		if err := build(mode); err == nil || err.Error() != base.Error() {
			t.Fatalf("%s deadlock report %q != %q", mode.name, err, base)
		}
	}
}

// TestGoroutineProcsExitAcrossKernels runs many short kernels of goroutine
// processes and requires the goroutine count to return to its baseline: a
// process goroutine exits when its body returns, so clean kernels leak none.
func TestGoroutineProcsExitAcrossKernels(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k := New()
		c := k.NewCounter("c")
		for j := 0; j < 20; j++ {
			k.Spawn(fmt.Sprintf("s%d", j), func(p *Proc) {
				p.SleepThen(Time(j)*Nanosecond, nop)
				c.Add(1)
			})
		}
		k.Spawn("sink", func(p *Proc) { p.WaitGEThen(c, 20, nop) })
		if err := k.Run(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after 50 clean kernels, %d before", n, base)
	}
}

// settledGoroutines returns the goroutine count once it is back at base,
// yielding up to a million times while it is not. A finished or released
// process hands the token back as its goroutine's last act, so the
// goroutine may still be unwinding when Run returns; under the race
// detector on two CPUs, 10,000 yields were sometimes too short a wait.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for tries := 0; n > base && tries < 1_000_000; tries++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestDeadKernelsReleaseGoroutines runs kernels that end deadlocked or
// failed with 100 goroutine processes parked in each, and requires the
// goroutine count to return to its baseline: a dead kernel is never
// resumed, so it ends its processes' goroutines instead of stranding them
// on their gates (10 deadlocked kernels used to leave 1,000 behind).
func TestDeadKernelsReleaseGoroutines(t *testing.T) {
	for _, end := range []string{"deadlock", "panic"} {
		base := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			k := New()
			never := k.NewCounter("never")
			for j := 0; j < 100; j++ {
				k.Spawn(fmt.Sprintf("w%d", j), func(p *Proc) {
					p.SleepThen(Time(j)*Nanosecond, nop)
					p.WaitGEThen(never, 1, func() { t.Error("released process ran simulation code") })
				})
			}
			if end == "panic" {
				k.Spawn("bad", func(p *Proc) {
					p.SleepThen(Microsecond, nop)
					panic("boom")
				})
			}
			if err := k.Run(); err == nil {
				t.Fatalf("%s kernel %d: Run succeeded", end, i)
			}
		}
		if n := settledGoroutines(base); n > base {
			t.Fatalf("%s: %d goroutines after 10 dead kernels of 100 processes, %d before", end, n, base)
		}
	}
}
