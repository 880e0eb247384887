package torus

import (
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

func newNet(t *testing.T, dx, dy, dz int) (*sim.Kernel, *Network, hw.Params) {
	t.Helper()
	k := sim.New()
	geom, err := geometry.NewTorus(dx, dy, dz)
	if err != nil {
		t.Fatal(err)
	}
	p := hw.DefaultParams()
	return k, New(k, geom, p), p
}

func TestLinkIdentity(t *testing.T) {
	_, net, _ := newNet(t, 4, 4, 4)
	a := net.Link(geometry.XYZ(1, 2, 3), geometry.X, geometry.Plus, 0)
	b := net.Link(geometry.XYZ(1, 2, 3), geometry.X, geometry.Plus, 0)
	if a != b {
		t.Fatal("same link not memoized")
	}
	c := net.Link(geometry.XYZ(1, 2, 3), geometry.X, geometry.Plus, 1)
	if a == c {
		t.Fatal("different lanes share a pipe")
	}
	d := net.Link(geometry.XYZ(1, 2, 3), geometry.X, geometry.Minus, 0)
	if a == d {
		t.Fatal("different directions share a pipe")
	}
}

func TestLineBcastArrivals(t *testing.T) {
	k, net, p := newNet(t, 8, 4, 4)
	wire := p.TorusWireBytes(240) // one 256-byte packet
	arr, _ := net.LineBcast(nil, 0, 0, geometry.X, geometry.Plus, 0, wire)
	if len(arr) != 7 {
		t.Fatalf("arrivals = %d, want 7", len(arr))
	}
	per := sim.TransferTime(wire, p.TorusLinkBps)
	for i, a := range arr {
		if a.Node != net.Geometry().NodeID(geometry.XYZ(i+1, 0, 0)) {
			t.Fatalf("arrival %d at wrong node %v", i, a.Node)
		}
		// Cut-through: hop k starts k*hopLat after injection and takes
		// one wire time, arriving after one more hop latency.
		want := sim.Time(i)*p.TorusHopLatency + per + p.TorusHopLatency
		if a.At != want {
			t.Fatalf("arrival %d at %v, want %v", i, a.At, want)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLineBcastBackToBackChunksPipeline(t *testing.T) {
	// Two chunks on the same line: the second chunk's first hop starts when
	// the first chunk has left the first link, so steady-state throughput is
	// one wire time per chunk.
	_, net, p := newNet(t, 8, 2, 2)
	a1, _ := net.LineBcast(nil, 0, 0, geometry.X, geometry.Plus, 0, p.TorusWireBytes(240))
	a2, _ := net.LineBcast(nil, 0, 0, geometry.X, geometry.Plus, 0, p.TorusWireBytes(240))
	per := sim.TransferTime(p.TorusWireBytes(240), p.TorusLinkBps)
	last1 := a1[len(a1)-1].At
	last2 := a2[len(a2)-1].At
	if got := last2 - last1; got != per {
		t.Fatalf("chunk spacing at tail = %v, want %v", got, per)
	}
}

func TestLineBcastWraps(t *testing.T) {
	_, net, _ := newNet(t, 4, 2, 2)
	arr, _ := net.LineBcast(nil, 0, 2, geometry.X, geometry.Plus, 0, net.WireBytes(100))
	wantX := []int{3, 0, 1}
	for i, a := range arr {
		if a.Node != wantX[i] {
			t.Fatalf("wrap order %v", arr)
		}
	}
}

// TestLineBcastArrivalIDs: the stride walk visits the nodes geometry.Line
// lists, in its order, from every node along every dimension in both
// directions, across the wrap, on tori with size-1 and size-2 dimensions.
func TestLineBcastArrivalIDs(t *testing.T) {
	for _, dims := range [][3]int{{5, 4, 3}, {2, 1, 3}, {1, 2, 4}, {3, 2, 1}} {
		_, net, _ := newNet(t, dims[0], dims[1], dims[2])
		geom := net.Geometry()
		var arr []Arrival
		for id := 0; id < geom.Nodes(); id++ {
			c := geom.CoordOf(id)
			for d := geometry.X; d < geometry.NumDims; d++ {
				for _, dir := range []geometry.Dir{geometry.Plus, geometry.Minus} {
					arr, _ = net.LineBcast(arr[:0], 0, id, d, dir, 0, 256)
					line := geom.Line(c, d, dir)
					if len(arr) != len(line) {
						t.Fatalf("%v from %v along %v%v: %d arrivals, want %d", geom, c, d, dir, len(arr), len(line))
					}
					for i, a := range arr {
						if a.Node != geom.NodeID(line[i]) {
							t.Fatalf("%v from %v along %v%v: arrival %d at node %d, want %d (%v)", geom, c, d, dir, i, a.Node, geom.NodeID(line[i]), line[i])
						}
					}
				}
			}
		}
	}
}

func TestUnicastMatchesRouteLength(t *testing.T) {
	_, net, p := newNet(t, 4, 4, 4)
	src := geometry.XYZ(0, 0, 0)
	dst := geometry.XYZ(2, 1, 0)
	at := net.Unicast(0, src, dst, 0, 240)
	per := sim.TransferTime(p.TorusWireBytes(240), p.TorusLinkBps)
	// 3 hops cut-through: head advances 2 extra hop latencies, plus wire
	// time, plus final hop latency.
	want := 2*p.TorusHopLatency + per + p.TorusHopLatency
	if at != want {
		t.Fatalf("unicast arrival %v, want %v", at, want)
	}
}

func TestUnicastSelfIsFree(t *testing.T) {
	_, net, _ := newNet(t, 4, 4, 4)
	c := geometry.XYZ(1, 1, 1)
	if at := net.Unicast(7*sim.Microsecond, c, c, 0, 1024); at != 7*sim.Microsecond {
		t.Fatalf("self unicast at %v", at)
	}
}

func TestNeighborSend(t *testing.T) {
	_, net, p := newNet(t, 4, 4, 4)
	at := net.NeighborSend(0, 3, geometry.X, geometry.Plus, 0, p.TorusWireBytes(240))
	want := sim.TransferTime(p.TorusWireBytes(240), p.TorusLinkBps) + p.TorusHopLatency
	if at != want {
		t.Fatalf("arrival %v, want %v", at, want)
	}
	// The hop used node 3's X+ link.
	if _, _, n := net.Link(geometry.XYZ(3, 0, 0), geometry.X, geometry.Plus, 0).Stats(); n != 1 {
		t.Fatalf("node 3's X+ link carried %d transfers, want 1", n)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	_, net, p := newNet(t, 4, 2, 2)
	from := geometry.XYZ(0, 0, 0)
	// Two unicasts over the same first link, same lane.
	a1 := net.Unicast(0, from, geometry.XYZ(1, 0, 0), 0, 240)
	a2 := net.Unicast(0, from, geometry.XYZ(1, 0, 0), 0, 240)
	per := sim.TransferTime(p.TorusWireBytes(240), p.TorusLinkBps)
	if a2-a1 != per {
		t.Fatalf("second transfer not queued: %v then %v", a1, a2)
	}
	// Different lanes do not contend.
	b1 := net.Unicast(0, from, geometry.XYZ(0, 1, 0), 1, 240)
	b2 := net.Unicast(0, from, geometry.XYZ(0, 1, 0), 2, 240)
	if b1 != b2 {
		t.Fatalf("different lanes contended: %v vs %v", b1, b2)
	}
}

func TestBandwidthSteadyState(t *testing.T) {
	// Streaming many chunks along a line approaches link bandwidth
	// (divided by the wire/payload overhead).
	_, net, p := newNet(t, 8, 2, 2)
	const chunks = 100
	const payload = 16 << 10
	var last sim.Time
	for i := 0; i < chunks; i++ {
		arr, _ := net.LineBcast(nil, 0, 0, geometry.X, geometry.Plus, 0, p.TorusWireBytes(payload))
		last = arr[len(arr)-1].At
	}
	bytes := float64(chunks * payload)
	gbps := bytes / last.Seconds()
	wireRatio := float64(payload) / float64(p.TorusWireBytes(payload))
	wantMin := p.TorusLinkBps * wireRatio * 0.98
	if gbps < wantMin || gbps > p.TorusLinkBps {
		t.Fatalf("steady-state line bandwidth %.1f MB/s, want ~%.1f", gbps/1e6, p.TorusLinkBps*wireRatio/1e6)
	}
}
