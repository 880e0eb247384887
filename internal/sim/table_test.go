package sim

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// chunkLog records what a chunk-loop scenario did, in dispatch order.
type chunkLog struct {
	k   *Kernel
	out []string
}

func (l *chunkLog) add(format string, a ...any) {
	l.out = append(l.out, fmt.Sprintf("%d ", l.k.Now())+fmt.Sprintf(format, a...))
}

// RunPost implements PostHandler: the injector tables' post step.
func (l *chunkLog) RunPost(a, _ int64) { l.add("inject %d", a) }

const (
	scenChunks = 9
	scenWindow = 3
)

// chunkScenario is two nodes' chunk loops over a shared delivery stream: per
// node a windowed injector and two copy loops on the node's counter and bus,
// and a rival that contends for the bus. With tables, the injectors and the
// copy loops run shared tables through per-process bindings; without, they
// run the literal per-operation loops the tables transcribe.
func chunkScenario(k *Kernel, tables bool, log *chunkLog) {
	delivered := make([]*Counter, scenChunks)
	for i := range delivered {
		delivered[i] = k.NewCounterf("delivered%d", int32(i))
	}
	lenOf := func(i int) int64 { return int64(1024 + 256*(i%3)) }
	var inject, copyTab Table
	if tables {
		inject.Reset(log)
		copyTab.Reset(log)
		var got int64
		for i := 0; i < scenChunks; i++ {
			if i >= scenWindow {
				inject.WaitGE(delivered[i-scenWindow], 1)
			}
			inject.Sleep(Time(3+i%2) * Nanosecond)
			inject.Post(int64(i))
			got += lenOf(i)
			copyTab.WaitBound(0, got)
			copyTab.Sleep(2 * Nanosecond)
			copyTab.Busy(int(lenOf(i)), 4*Nanosecond)
			copyTab.AddBound(1, lenOf(i))
		}
	}
	k.SpawnProgram("feeder", func(p *Proc) {
		var feed func(i int)
		feed = func(i int) {
			if i == scenChunks {
				return
			}
			p.SleepThen(Time(7+i%4)*Nanosecond, func() {
				delivered[i].Fire()
				feed(i + 1)
			})
		}
		feed(0)
	})
	for node := 0; node < 2; node++ {
		bus := k.NewPipe(fmt.Sprintf("bus%d", node), 1e9, 0)
		sw := k.NewCounterf("sw%d", int32(node))
		k.SpawnProgramIdx("inj%d", int32(node), func(p *Proc) {
			done := func() { log.add("inj%d done", node) }
			if tables {
				p.RunThen(&Binding{Table: &inject}, done)
				return
			}
			var step, after func()
			i := 0
			step = func() {
				if i == scenChunks {
					done()
					return
				}
				touch := func() { p.SleepThen(Time(3+i%2)*Nanosecond, after) }
				if i >= scenWindow {
					p.WaitGEThen(delivered[i-scenWindow], 1, touch)
					return
				}
				touch()
			}
			after = func() {
				log.RunPost(int64(i), 0)
				i++
				step()
			}
			step()
		})
		// The node's receiver publishes each delivered chunk on sw.
		k.SpawnProgramIdx("rx%d", int32(node), func(p *Proc) {
			var step func(i int)
			step = func(i int) {
				if i == scenChunks {
					return
				}
				p.WaitGEThen(delivered[i], 1, func() {
					p.SleepThen(Nanosecond, func() {
						sw.Add(lenOf(i))
						step(i + 1)
					})
				})
			}
			step(0)
		})
		for c := 0; c < 2; c++ {
			out := k.NewCounterf("out%d", int32(2*node+c))
			k.SpawnProgramIdx("copy%d", int32(2*node+c), func(p *Proc) {
				done := func() { log.add("copy%d.%d done out=%d", node, c, out.Value()) }
				if tables {
					p.RunThen(&Binding{Table: &copyTab, Counters: [2]*Counter{sw, out}, Pipe: bus}, done)
					return
				}
				var step, poll, copyChunk, publish func()
				i, got := 0, int64(0)
				step = func() {
					if i == scenChunks {
						done()
						return
					}
					got += lenOf(i)
					p.WaitGEThen(sw, got, poll)
				}
				poll = func() { p.SleepThen(2*Nanosecond, copyChunk) }
				copyChunk = func() { p.BusyThen(bus, int(lenOf(i)), 4*Nanosecond, publish) }
				publish = func() {
					out.Add(lenOf(i))
					i++
					step()
				}
				step()
			})
		}
		k.SpawnProgramIdx("rival%d", int32(node), func(p *Proc) {
			var contend func(i int)
			contend = func(i int) {
				if i < 2*scenChunks {
					p.SleepThen(5*Nanosecond, func() {
						p.BusyThen(bus, 700, 0, func() { contend(i + 1) })
					})
				}
			}
			contend(0)
		})
	}
}

// runChunkScenario runs chunkScenario in one vehicle and returns its log and
// dispatch count.
func runChunkScenario(t *testing.T, tables, noProgram bool) ([]string, int64) {
	t.Helper()
	k := New()
	k.SetNoProgram(noProgram)
	log := &chunkLog{k: k}
	chunkScenario(k, tables, log)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	log.add("end")
	return log.out, k.Dispatched()
}

// TestTableMatchesPerChunkLoop: a loop run from a shared table does what
// the per-operation loop it transcribes (WaitGEThen, SleepThen, BusyThen,
// Add) does, at the same instants and in the same order, and the kernel
// dispatches exactly as many entries. The goroutine vehicle, which runs the
// table one operation at a time, agrees.
func TestTableMatchesPerChunkLoop(t *testing.T) {
	want, wantN := runChunkScenario(t, false, false)
	got, gotN := runChunkScenario(t, true, false)
	if !slices.Equal(got, want) {
		t.Fatalf("table log differs from the per-operation loops:\n got %q\nwant %q", got, want)
	}
	if gotN != wantN {
		t.Fatalf("tables dispatched %d entries, per-operation loops %d", gotN, wantN)
	}
	ref, _ := runChunkScenario(t, true, true)
	if !slices.Equal(ref, want) {
		t.Fatalf("goroutine vehicle's table log differs:\n got %q\nwant %q", ref, want)
	}
}

// TestTableSurvivesRebind: a process that runs a table twice and then
// another table runs each from its first step, from the table it was last
// bound to, and leaves both tables as they were.
func TestTableSurvivesRebind(t *testing.T) {
	for _, kind := range procKinds {
		k := New()
		k.SetNoProgram(kind.noProgram)
		c := k.NewCounter("c")
		pipe := k.NewPipe("bus", 1e9, 0)
		var tab, other Table
		tab.Reset(nil)
		tab.Sleep(3 * Nanosecond)
		tab.AddBound(0, 1)
		other.Reset(nil)
		other.Busy(4096, Nanosecond)
		other.AddBound(1, 5)
		want, wantOther := slices.Clone(tab.steps), slices.Clone(other.steps)
		b := Binding{Table: &tab, Counters: [2]*Counter{c}}
		ob := Binding{Table: &other, Counters: [2]*Counter{nil, c}, Pipe: pipe}
		var at Time
		k.SpawnProgram("p", func(p *Proc) {
			p.RunThen(&b, func() {
				p.RunThen(&b, func() {
					p.RunThen(&ob, func() { at = p.Now() })
				})
			})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tab.steps, want) || !slices.Equal(other.steps, wantOther) {
			t.Fatalf("%s: table steps changed to %+v and %+v", kind.name, tab.steps, other.steps)
		}
		if c.Value() != 7 || at != 6*Nanosecond+TransferTime(4096, 1e9) {
			t.Fatalf("%s: counter = %d at %v, want 7 at %v", kind.name, c.Value(), at, 6*Nanosecond+TransferTime(4096, 1e9))
		}
	}
}

// tableCapture fingerprints a kernel whose one process is parked mid-table,
// on a wait for its bound counter, with the rest of the table still to run.
func tableCapture(t *testing.T, bound int64, post bool) (capture []byte, reason string) {
	t.Helper()
	k := New()
	c, gate := k.NewCounter("c"), k.NewCounter("gate")
	c.Add(bound)
	var tab Table
	tab.Reset(&chunkLog{k: k})
	tab.WaitGE(gate, 1)
	tab.Sleep(Nanosecond)
	if post {
		tab.Post(0)
	}
	tab.AddBound(0, 1)
	b := Binding{Table: &tab, Counters: [2]*Counter{c}}
	k.SpawnProgram("p", func(p *Proc) { p.RunThen(&b, nop) })
	k.At(1000, func() {
		f := &FP{}
		f.reset(k.now)
		k.steadyWalk(f)
		capture, reason = append(capture, f.buf...), f.reason
		gate.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return capture, reason
}

// TestSteadyHashesTableBindings: a parked table's bound operands steer its
// future, so captures that differ only in a bound counter's value compare
// unequal; a post step still to run refuses the capture.
func TestSteadyHashesTableBindings(t *testing.T) {
	a, ra := tableCapture(t, 1, false)
	b, rb := tableCapture(t, 2, false)
	if ra != "" || rb != "" {
		t.Fatalf("capture refused: %q, %q", ra, rb)
	}
	if bytes.Equal(a, b) {
		t.Error("captures that differ in a bound counter compare equal")
	}
	if _, r := tableCapture(t, 1, true); !strings.Contains(r, "post step") {
		t.Errorf("pending post step refusal = %q, want a post-step refusal", r)
	}
}
