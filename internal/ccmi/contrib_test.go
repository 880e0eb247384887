package ccmi

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/trace"
)

// contribAdd raises node's tally for color by bytes at instant at. A node
// below zero marks where the schedule's Run is registered instead.
type contribAdd struct {
	at          sim.Time
	node, color int
	bytes       int64
}

// startAt is the contribAdd that runs the schedule at t.
func startAt(t sim.Time) contribAdd { return contribAdd{at: t, node: -1} }

// contribRun is what one fed allreduce schedule did: its trace, which
// names every contribution stage, root reduction, pump and delivery in run
// order with its instant, and the kernel's end instant, dispatch count and
// hook-table high-water.
type contribRun struct {
	events     []trace.Event
	end        sim.Time
	dispatched int64
	hooks      int
}

// newChunkMachine returns a dx×dy×dz machine whose pipeline chunks are all
// MinChunk (4 KB), whatever the message size.
func newChunkMachine(t *testing.T, dx, dy, dz int) *machine.Machine {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: dx, DY: dy, DZ: dz}
	cfg.Params.ChunkDivisor = 1 << 20
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runContribs runs a timing-only allreduce of bytes on a fresh 2×2×2
// machine of 4 KB chunks, fed by adds in list order. The feed holds one
// pending closure at a time: one At closure runs each instant's adds and
// then schedules the next instant's, so the kernel's hook high-water counts
// the schedule's hooks and one feed closure. With oracle set, the adds go to
// one counter per (node, color) instead of the tally, and Run is followed by
// one Counter.OnGEHook per (color, node, chunk) on them, the contribution
// stage at the chunk's threshold: the scheduling the tally replaced, in its
// registration order.
func runContribs(t *testing.T, bytes int, adds []contribAdd, oracle bool) contribRun {
	t.Helper()
	m := newChunkMachine(t, 2, 2, 2)
	m.Trace = trace.New(1 << 20)
	colors := geometry.Colors(3)
	nodes := m.Geom.Nodes()
	ar := &Allreduce{
		M:           m,
		Root:        geometry.XYZ(0, 1, 0),
		Bytes:       bytes,
		Colors:      colors,
		Contrib:     make([]int64, nodes*len(colors)),
		ContribBufs: make([]data.Buf, nodes),
		ResultBufs:  make([]data.Buf, nodes),
		Deliveries:  make([]*Delivery, nodes),
		ProtoPipes:  protoPipes(m),
	}
	for n := 0; n < nodes; n++ {
		ar.ContribBufs[n] = data.New(bytes, false)
		ar.ResultBufs[n] = data.New(bytes, false)
		ar.Deliveries[n] = NewDelivery(m.K, "result")
	}
	counters := make([]*sim.Counter, nodes*len(colors))
	for i := range counters {
		counters[i] = m.K.NewCounter("contrib")
	}
	run := func() {
		ar.Run()
		if !oracle {
			return
		}
		for i := range ar.runs {
			cr := &ar.runs[i]
			for n := 0; n < nodes; n++ {
				for c, span := range cr.spans {
					threshold := int64(span.Off + span.Len - cr.baseOff)
					counters[n*len(colors)+i].OnGEHook(threshold, &cr.contribH, int64(n), int64(c))
				}
			}
		}
	}
	apply := func(a contribAdd) {
		switch {
		case a.node < 0:
			run()
		case oracle:
			counters[a.node*len(colors)+a.color].Add(a.bytes)
		default:
			contribute(ar, a.node, a.color, a.bytes)
		}
	}
	feed := slices.Clone(adds)
	slices.SortStableFunc(feed, func(a, b contribAdd) int { return cmp.Compare(a.at, b.at) })
	var step func()
	step = func() {
		at := feed[0].at
		for len(feed) > 0 && feed[0].at == at {
			a := feed[0]
			feed = feed[1:]
			apply(a)
		}
		if len(feed) > 0 {
			m.K.At(feed[0].at, step)
		}
	}
	if len(feed) > 0 {
		m.K.At(feed[0].at, step)
	}
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Trace.Dropped() != 0 {
		t.Fatal("trace log overflowed")
	}
	for n, d := range ar.Deliveries {
		if got := d.Counter.Value(); got != int64(bytes) {
			t.Fatalf("node %d delivered %d of %d bytes", n, got, bytes)
		}
	}
	return contribRun{m.Trace.Events(), m.K.Now(), m.K.Dispatched(), m.K.Hooks()}
}

// TestContributionsScheduleAsCounterWaiters: raising a node's tally and
// calling Contributed schedules each contribution stage at exactly the
// instant and run-order position that per-chunk OnGEHook waiters on a
// contribution counter gave it. The cases cover adds that cover no chunk,
// one chunk and several, adds made before Run (at earlier instants and at
// Run's own instant, before and after it), and color partitions of zero
// length.
func TestContributionsScheduleAsCounterWaiters(t *testing.T) {
	const us = sim.Microsecond
	const part = 4 * chunkBytes // per color: four 4 KB chunks
	const nodes = 8

	// every adds bytes to each color of every node at instant at, nodes in
	// order.
	every := func(at sim.Time, bytes int64) []contribAdd {
		var out []contribAdd
		for n := 0; n < nodes; n++ {
			for c := 0; c < 3; c++ {
				out = append(out, contribAdd{at, n, c, bytes})
			}
		}
		return out
	}
	// uneven feeds each node a different pattern of partial, single and
	// multi-chunk adds, interleaving nodes and colors at shared instants.
	uneven := func(from sim.Time) []contribAdd {
		var out []contribAdd
		for n := 0; n < nodes; n++ {
			for c := 0; c < 3; c++ {
				at := from + sim.Time((n+c)%3)*us
				out = append(out,
					contribAdd{at, n, c, 1000},                          // inside chunk 0: covers none
					contribAdd{at + 2*us, n, c, chunkBytes - 1000},      // completes chunk 0: covers one
					contribAdd{at + 2*us, n, c, 0},                      // no growth
					contribAdd{at + 5*us, n, c, 2*chunkBytes + 100},     // covers chunks 1 and 2
					contribAdd{at + sim.Time(9+n)*us, n, c, chunkBytes}, // the last chunk, and beyond
				)
			}
		}
		return out
	}
	cases := []struct {
		name  string
		bytes int
		adds  []contribAdd
	}{
		{"whole-partitions-after-run", 3 * part, append([]contribAdd{startAt(0)}, every(0, part)...)},
		{"zero-one-several-chunks", 3 * part, append([]contribAdd{startAt(0)}, uneven(us)...)},
		{"before-run", 3 * part, slices.Concat(
			every(us, chunkBytes),     // one chunk each, at an earlier instant
			every(3*us, chunkBytes/2), // half a chunk, at Run's instant, before it
			[]contribAdd{startAt(3 * us)},
			every(3*us, chunkBytes/2), // the second chunk, at Run's instant, after it
			every(4*us, 2*chunkBytes), // the rest
		)},
		{"before-run-everything", 3 * part, append(every(0, part), startAt(2*us))},
		// 8 bytes split three ways: colors 0 and 1 get empty partitions,
		// which have no chunks, and color 2 one chunk of one double.
		{"zero-length-partitions", data.Float64Len, slices.Concat(
			every(0, 0),
			[]contribAdd{startAt(us)},
			every(2*us, data.Float64Len),
		)},
		// 40 bytes: partitions of 8, 8 and 24 bytes, fed before and after
		// Run.
		{"tiny-partitions", 5 * data.Float64Len, slices.Concat(
			every(0, data.Float64Len),
			[]contribAdd{startAt(us)},
			every(us, 2*data.Float64Len),
		)},
	}
	for _, tc := range cases {
		got := runContribs(t, tc.bytes, tc.adds, false)
		want := runContribs(t, tc.bytes, tc.adds, true)
		contributed := 0
		for _, e := range got.events {
			if strings.HasSuffix(e.Label, "contributed") {
				contributed++
			}
		}
		if contributed == 0 {
			t.Errorf("%s: no contribution stage ran", tc.name)
		}
		if !slices.Equal(got.events, want.events) {
			for i := range min(len(got.events), len(want.events)) {
				if got.events[i] != want.events[i] {
					t.Errorf("%s: event %d is %v, the counter schedule's %v", tc.name, i, got.events[i], want.events[i])
					break
				}
			}
			t.Errorf("%s: %d events, the counter schedule %d", tc.name, len(got.events), len(want.events))
		}
		if got.end != want.end || got.dispatched != want.dispatched {
			t.Errorf("%s: ends at %v after %d dispatches, the counter schedule at %v after %d",
				tc.name, got.end, got.dispatched, want.end, want.dispatched)
		}
	}
}

// TestContributionHooksIndependentOfChunks: an allreduce whose nodes
// contribute chunk by chunk, as the rank protocols do, holds a hook-table
// slot only for work in flight, so its high-water does not grow from 4 to
// 64 chunks per color. Subscribing to every chunk's threshold up front
// would hold one slot per (node, chunk, color) from Run on.
func TestContributionHooksIndependentOfChunks(t *testing.T) {
	hooks := func(chunks int) int {
		adds := []contribAdd{startAt(0)}
		for j := 0; j < chunks; j++ {
			for n := 0; n < 8; n++ {
				for c := 0; c < 3; c++ {
					adds = append(adds, contribAdd{sim.Time(j+1) * 100 * sim.Microsecond, n, c, chunkBytes})
				}
			}
		}
		return runContribs(t, 3*chunks*chunkBytes, adds, false).hooks
	}
	few, many := hooks(4), hooks(64)
	if many > few {
		t.Errorf("hook high-water %d at 64 chunks per color, %d at 4", many, few)
	}
	t.Logf("hook high-water: %d at 4 and %d at 64 chunks per color", few, many)
}
