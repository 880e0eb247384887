package ccmi

import (
	"slices"
	"testing"

	"bgpcoll/internal/geometry"
)

// TestRouteTablesMatchDefinitions: the per-schedule tables the stage
// handlers read hold what duties, succ and WireBytes return, for every node
// and color, with the root at a corner, the far corner and inside, on tori
// with size-1 and size-2 dimensions. The same color runs are re-armed for
// every case, so a table entry a smaller case left behind would show.
func TestRouteTablesMatchDefinitions(t *testing.T) {
	runs := make([]colorReduce, 6)
	for _, dims := range [][3]int{{4, 3, 2}, {2, 1, 3}, {1, 4, 1}, {3, 2, 5}, {1, 1, 1}} {
		m := newMachine(t, dims[0], dims[1], dims[2])
		nodes := m.Geom.Nodes()
		for _, rootID := range []int{0, nodes - 1, nodes / 2} {
			root := m.Geom.CoordOf(rootID)
			a := &Allreduce{M: m, Root: root, rootID: rootID}
			for i, color := range geometry.Colors(6) {
				cr := &runs[i]
				cr.a, cr.color = a, color
				cr.down.arm(m, root, color, i, a, 100000+777*i, 0)
				cr.init(0)
				down := &cr.down
				for c, span := range down.spans {
					if got, want := down.wire[c], m.Torus.WireBytes(span.Len); got != want {
						t.Fatalf("%v color %v: chunk %d wire %d, want %d", m.Geom, color, c, got, want)
					}
				}
				if len(down.duty) != nodes || len(cr.hops) != nodes {
					t.Fatalf("%v color %v: %d duties and %d hops for %d nodes", m.Geom, color, len(down.duty), len(cr.hops), nodes)
				}
				for id := 0; id < nodes; id++ {
					v := m.Geom.CoordOf(id)
					succ, d, ok := cr.succ(v)
					if id == rootID {
						if ok || down.duty[id] != duty(len(down.dims)) {
							t.Fatalf("%v root %v color %v: root has duty %#x, successor %v", m.Geom, root, color, down.duty[id], ok)
						}
						continue
					}
					lines, patch := down.duties(v)
					du := down.duty[id]
					if got := down.dims[du&dutyFirst:]; !slices.Equal(got, lines) || (du&dutyPatch != 0) != patch {
						t.Fatalf("%v root %v color %v node %v: table says lines %v patch %v, duties says %v %v",
							m.Geom, root, color, v, got, du&dutyPatch != 0, lines, patch)
					}
					if patch {
						if got, want := id+down.patchTo, m.Geom.NodeID(m.Geom.Neighbor(v, down.dims[0], color.Dir)); got != want {
							t.Fatalf("%v root %v color %v node %v: patch goes to node %d, want %d", m.Geom, root, color, v, got, want)
						}
					}
					if h := cr.hops[id]; !ok || h.to() != m.Geom.NodeID(succ) || h.dim() != d {
						t.Fatalf("%v root %v color %v node %v: table hop to %d along %v, succ gives %v along %v (ok %v)",
							m.Geom, root, color, v, h.to(), h.dim(), succ, d, ok)
					}
				}
			}
		}
	}
}
