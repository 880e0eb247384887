package ccmi

import (
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
)

// runAllreduce drives the network schedule with all contributions ready at
// time zero and returns the per-node result buffers.
func runAllreduce(t *testing.T, m *machine.Machine, root geometry.Coord, doubles int, colors []geometry.Color) ([]data.Buf, []*Delivery) {
	t.Helper()
	bytes := doubles * data.Float64Len
	nodes := m.Geom.Nodes()
	ar := &Allreduce{
		M:           m,
		Root:        root,
		Bytes:       bytes,
		Colors:      colors,
		Contrib:     make([]int64, nodes*len(colors)),
		ContribBufs: make([]data.Buf, nodes),
		ResultBufs:  make([]data.Buf, nodes),
		Deliveries:  make([]*Delivery, nodes),
		ProtoPipes:  make([]*sim.Pipe, nodes),
	}
	for n := 0; n < nodes; n++ {
		ar.ContribBufs[n] = data.New(bytes, true)
		vals := make([]float64, doubles)
		for i := range vals {
			vals[i] = float64(n + 1) // node n contributes n+1 everywhere
		}
		ar.ContribBufs[n].PutFloats(vals)
		ar.ResultBufs[n] = data.New(bytes, true)
		ar.Deliveries[n] = NewDelivery(m.K, "result")
		ar.ProtoPipes[n] = m.K.NewPipe("proto", m.Cfg.Params.ReduceBps, 0)
	}
	m.K.At(0, func() {
		ar.Run()
		for n := 0; n < nodes; n++ {
			for c := range colors {
				contribute(ar, n, c, int64(bytes)) // beyond any partition length: all ready
			}
		}
	})
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	return ar.ResultBufs, ar.Deliveries
}

// contribute raises node's tally for color by bytes, as a rank protocol
// does, and tells the schedule.
func contribute(ar *Allreduce, node, color int, bytes int64) {
	ar.Contrib[node*len(ar.Colors)+color] += bytes
	ar.Contributed(node, color)
}

func TestAllreduceSumCorrect(t *testing.T) {
	for _, dims := range [][3]int{{4, 3, 2}, {2, 2, 2}, {1, 4, 1}, {1, 1, 1}} {
		m := newMachine(t, dims[0], dims[1], dims[2])
		nodes := m.Geom.Nodes()
		doubles := 1024
		results, dels := runAllreduce(t, m, geometry.XYZ(0, 0, 0), doubles, geometry.Colors(3))
		// Sum over n of (n+1) = nodes*(nodes+1)/2.
		want := float64(nodes*(nodes+1)) / 2
		for n, res := range results {
			if got := dels[n].Counter.Value(); got != int64(doubles*data.Float64Len) {
				t.Fatalf("%v node %d delivered %d bytes", m.Geom, n, got)
			}
			vals := res.Floats()
			for i, v := range vals {
				if v != want {
					t.Fatalf("%v node %d element %d = %v, want %v", m.Geom, n, i, v, want)
				}
			}
		}
	}
}

func TestAllreduceNonZeroRoot(t *testing.T) {
	m := newMachine(t, 3, 2, 2)
	results, _ := runAllreduce(t, m, geometry.XYZ(2, 1, 1), 256, geometry.Colors(3))
	nodes := m.Geom.Nodes()
	want := float64(nodes*(nodes+1)) / 2
	for n, res := range results {
		if res.Floats()[0] != want {
			t.Fatalf("node %d = %v, want %v", n, res.Floats()[0], want)
		}
	}
}

func TestAllreducePipelinesReduceAndBroadcast(t *testing.T) {
	// The total time for a large allreduce must be well below the
	// unpipelined sum of a full reduce followed by a full broadcast:
	// with chunk pipelining it approaches one message time per phase
	// overlapped, i.e. ~1x the message stream time rather than 2x.
	m := newMachine(t, 4, 4, 4)
	doubles := 256 << 10 // 2 MB
	_, _ = runAllreduce(t, m, geometry.XYZ(0, 0, 0), doubles, geometry.Colors(3))
	elapsed := m.K.Now()
	bytes := doubles * data.Float64Len
	p := m.Cfg.Params
	payloadRatio := float64(p.TorusPayloadBytes) / float64(p.TorusPacketBytes)
	// One phase at 3 colors x link rate:
	onePhase := sim.TransferTime(bytes, 3*p.TorusLinkBps*payloadRatio)
	if elapsed > 2*onePhase {
		t.Fatalf("allreduce took %v, want < 2x one-phase time %v (pipelining broken)", elapsed, 2*onePhase)
	}
	if elapsed < onePhase {
		t.Fatalf("allreduce took %v, faster than physically possible %v", elapsed, onePhase)
	}
}

func TestAllreduceDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := newMachine(t, 3, 3, 2)
		runAllreduce(t, m, geometry.XYZ(0, 0, 0), 4096, geometry.Colors(3))
		return m.K.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestAllreduceIncrementalContributions(t *testing.T) {
	// Contributions arriving late must gate the pipeline but still produce
	// the correct sum.
	m := newMachine(t, 2, 2, 1)
	nodes := m.Geom.Nodes()
	doubles := 512
	bytes := doubles * data.Float64Len
	ar := &Allreduce{
		M:           m,
		Root:        geometry.XYZ(0, 0, 0),
		Bytes:       bytes,
		Colors:      geometry.Colors(3),
		Contrib:     make([]int64, nodes*3),
		ContribBufs: make([]data.Buf, nodes),
		ResultBufs:  make([]data.Buf, nodes),
		Deliveries:  make([]*Delivery, nodes),
		ProtoPipes:  make([]*sim.Pipe, nodes),
	}
	for n := 0; n < nodes; n++ {
		ar.ContribBufs[n] = data.New(bytes, true)
		vals := make([]float64, doubles)
		for i := range vals {
			vals[i] = 2
		}
		ar.ContribBufs[n].PutFloats(vals)
		ar.ResultBufs[n] = data.New(bytes, true)
		ar.Deliveries[n] = NewDelivery(m.K, "result")
		ar.ProtoPipes[n] = m.K.NewPipe("proto", m.Cfg.Params.ReduceBps, 0)
	}
	m.K.At(0, ar.Run)
	// Feed contributions in two halves at different times.
	for n := 0; n < nodes; n++ {
		m.K.At(sim.Microsecond, func() {
			for c := range ar.Colors {
				contribute(ar, n, c, int64(bytes/2))
			}
		})
		m.K.At(sim.Time(n+1)*50*sim.Microsecond, func() {
			for c := range ar.Colors {
				contribute(ar, n, c, int64(bytes-bytes/2))
			}
		})
	}
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		vals := ar.ResultBufs[n].Floats()
		for i, v := range vals {
			if v != float64(2*nodes) {
				t.Fatalf("node %d elem %d = %v, want %d", n, i, v, 2*nodes)
			}
		}
	}
}

// TestReduceTreeIsSpanning verifies the reduce routing forms a spanning tree
// rooted at the schedule root: every node's successor chain reaches the root
// without cycles, for every color and several roots.
func TestReduceTreeIsSpanning(t *testing.T) {
	m := newMachine(t, 4, 3, 2)
	for _, rootID := range []int{0, 7, 23} {
		root := m.Geom.CoordOf(rootID)
		for _, color := range geometry.Colors(3) {
			cr := &colorReduce{a: &Allreduce{M: m, Root: root}, color: color}
			for _, d := range color.Order {
				if m.Geom.Size(d) > 1 {
					cr.dims = append(cr.dims, d)
				}
			}
			for n := 0; n < m.Geom.Nodes(); n++ {
				v := m.Geom.CoordOf(n)
				steps := 0
				for v != root {
					next, _, ok := cr.succ(v)
					if !ok {
						t.Fatalf("root %v color %v: node %v has no successor but is not root", root, color, v)
					}
					v = next
					steps++
					if steps > m.Geom.Nodes() {
						t.Fatalf("root %v color %v: cycle from node %d", root, color, n)
					}
				}
			}
		}
	}
}
