package ccmi

import (
	"slices"
	"strings"
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/trace"
)

// Per-color partitions of 8 and 16 default-size (MinChunk, 4 KB) chunks.
const (
	chunkBytes = 4 << 10
	fewChunks  = 8
)

// phantomBcast runs a timing-only rectangle broadcast of chunks chunks per
// color.
func phantomBcast(t *testing.T, m *machine.Machine, chunks int) []*Delivery {
	colors := m.Colors()
	dels := make([]*Delivery, m.Geom.Nodes())
	for i := range dels {
		dels[i] = NewDelivery(m.K, "del")
	}
	b := &Bcast{
		M:          m,
		Root:       geometry.XYZ(1, 0, 1),
		Src:        data.New(len(colors)*chunks*chunkBytes, false),
		Bufs:       make([]data.Buf, len(dels)),
		Deliveries: dels,
		Colors:     colors,
	}
	m.K.At(0, b.Run)
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	return dels
}

// phantomAllreduce runs a timing-only pipelined allreduce of chunks chunks
// per color, with every contribution ready at time zero.
func phantomAllreduce(t *testing.T, m *machine.Machine, proto []*sim.Pipe, chunks int) []*Delivery {
	colors := geometry.Colors(3)
	bytes := len(colors) * chunks * chunkBytes
	nodes := m.Geom.Nodes()
	ar := &Allreduce{
		M:           m,
		Root:        geometry.XYZ(0, 1, 1),
		Bytes:       bytes,
		Colors:      colors,
		Contrib:     make([]int64, nodes*len(colors)),
		ContribBufs: make([]data.Buf, nodes),
		ResultBufs:  make([]data.Buf, nodes),
		Deliveries:  make([]*Delivery, nodes),
		ProtoPipes:  proto,
	}
	for n := 0; n < nodes; n++ {
		ar.ContribBufs[n] = data.New(bytes, false)
		ar.ResultBufs[n] = data.New(bytes, false)
		ar.Deliveries[n] = NewDelivery(m.K, "result")
	}
	m.K.At(0, ar.Run)
	m.K.At(0, func() {
		for n := 0; n < nodes; n++ {
			for c := range colors {
				contribute(ar, n, c, int64(bytes))
			}
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	return ar.Deliveries
}

func protoPipes(m *machine.Machine) []*sim.Pipe {
	out := make([]*sim.Pipe, m.Geom.Nodes())
	for i := range out {
		out[i] = m.K.NewPipe("proto", m.Cfg.Params.ReduceBps, 0)
	}
	return out
}

// TestScheduleAllocsIndependentOfChunks pins "nothing per chunk": on a
// warmed machine, doubling the chunk count of a phantom broadcast or
// allreduce leaves the number of heap allocations unchanged. A closure,
// method value or fresh slice per chunk, node or hop would scale with it.
func TestScheduleAllocsIndependentOfChunks(t *testing.T) {
	m := newMachine(t, 4, 4, 2)
	proto := protoPipes(m) // pipes survive Reset: create them once
	runs := []struct {
		name string
		run  func(chunks int)
	}{
		{"bcast", func(chunks int) {
			m.Reset()
			phantomBcast(t, m, chunks)
		}},
		{"allreduce", func(chunks int) {
			m.Reset()
			phantomAllreduce(t, m, proto, chunks)
		}},
	}
	for _, r := range runs {
		name, run := r.name, r.run
		// Warm up: kernel tables, heap batches and counter waiter lists
		// keep their capacity across Reset once they have seen the larger
		// schedule.
		for i := 0; i < 3; i++ {
			run(2 * fewChunks)
			run(fewChunks)
		}
		few := testing.AllocsPerRun(5, func() { run(fewChunks) })
		many := testing.AllocsPerRun(5, func() { run(2 * fewChunks) })
		if few != many {
			t.Errorf("%s: %v allocs at %d chunks/color, %v at %d", name, few, fewChunks, many, 2*fewChunks)
		}
	}
}

// TestTraceDoesNotPerturbSchedule runs the same broadcast and allreduce with
// and without a trace log: end times and delivery logs must match exactly,
// and the traced run must still record the schedule's milestones.
func TestTraceDoesNotPerturbSchedule(t *testing.T) {
	type result struct {
		end  sim.Time
		lens [][]int32
		log  *trace.Log
	}
	run := func(traced bool, sched func(m *machine.Machine) []*Delivery) result {
		m := newMachine(t, 4, 2, 2)
		if traced {
			m.Trace = trace.New(1 << 16)
		}
		r := result{log: m.Trace}
		for _, d := range sched(m) {
			r.lens = append(r.lens, d.Lens)
		}
		r.end = m.K.Now()
		return r
	}
	scheds := []struct {
		name  string
		sched func(m *machine.Machine) []*Delivery
	}{
		{"bcast", func(m *machine.Machine) []*Delivery { return phantomBcast(t, m, 4) }},
		{"allreduce", func(m *machine.Machine) []*Delivery { return phantomAllreduce(t, m, protoPipes(m), 4) }},
	}
	for _, s := range scheds {
		name, sched := s.name, s.sched
		plain, traced := run(false, sched), run(true, sched)
		if plain.end != traced.end {
			t.Errorf("%s: end time %v untraced, %v traced", name, plain.end, traced.end)
		}
		for n := range plain.lens {
			if !slices.Equal(plain.lens[n], traced.lens[n]) {
				t.Errorf("%s: node %d delivery log differs under tracing", name, n)
			}
		}
		if traced.log.Dropped() != 0 {
			t.Fatalf("%s: trace log overflowed", name)
		}
		want := []string{"pump chunk", "delivered"}
		if name == "allreduce" {
			want = append(want, "reduced at root")
		}
		for _, w := range want {
			found := false
			for _, e := range traced.log.Events() {
				found = found || strings.Contains(e.Label, w)
			}
			if !found {
				t.Errorf("%s: traced run recorded no %q event", name, w)
			}
		}
	}
}
