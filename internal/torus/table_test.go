package torus

import (
	"fmt"
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// lanesInUse are the link lanes the collectives and point-to-point traffic
// use: rectangle broadcast colors 0..5, allreduce reduce and broadcast-down
// colors 6..17, and mpi's point-to-point (12) and control (13) lanes, which
// fall inside that range.
const lanesInUse = 18

// TestLinkTableEquivalence: Link returns one pipe per (node, dim, dir,
// lane), the same pipe on every call, named after its key, and Stats counts
// exactly the links made.
func TestLinkTableEquivalence(t *testing.T) {
	_, net, _ := newNet(t, 4, 3, 2)
	geom := net.Geometry()
	type key struct {
		node int
		dim  geometry.Dim
		dir  geometry.Dir
		lane int
	}
	seen := map[*sim.Pipe]key{}
	// Touch the lanes out of order so a later lane's row exists before an
	// earlier one's.
	for _, lane := range []int{12, 13, 17, 0, 5, 6, 11, 1, 2, 3, 4, 7, 8, 9, 10, 14, 15, 16} {
		for id := 0; id < geom.Nodes(); id++ {
			c := geom.CoordOf(id)
			for d := geometry.X; d < geometry.NumDims; d++ {
				for _, dir := range []geometry.Dir{geometry.Plus, geometry.Minus} {
					k := key{id, d, dir, lane}
					l := net.Link(c, d, dir, lane)
					if prev, dup := seen[l]; dup {
						t.Fatalf("%+v and %+v share a pipe", prev, k)
					}
					seen[l] = k
					if again := net.Link(c, d, dir, lane); again != l {
						t.Fatalf("%+v: second lookup returned another pipe", k)
					}
					if want := fmt.Sprintf("torus.%d.%v%v.l%d", id, d, dir, lane); l.Name() != want {
						t.Fatalf("%+v: pipe named %q, want %q", k, l.Name(), want)
					}
				}
			}
		}
		if links, _, _ := net.Stats(); links != len(seen) {
			t.Fatalf("after lane %d: Stats counts %d links, created %d", lane, links, len(seen))
		}
	}
	if want := geom.Nodes() * linksPerNode * lanesInUse; len(seen) != want {
		t.Fatalf("%d distinct links, want %d", len(seen), want)
	}
}

// TestStatsCountsUsedLinks: links are created on first use only, so a fresh
// network reports none and a line broadcast reports one per hop, carrying
// every hop's wire bytes.
func TestStatsCountsUsedLinks(t *testing.T) {
	_, net, p := newNet(t, 8, 2, 2)
	if links, bytes, busy := net.Stats(); links != 0 || bytes != 0 || busy != 0 {
		t.Fatalf("fresh network: %d links, %d bytes, busy %v", links, bytes, busy)
	}
	from, wire := net.Geometry().NodeID(geometry.XYZ(0, 1, 1)), net.WireBytes(1000)
	net.LineBcast(nil, 0, from, geometry.X, geometry.Minus, 9, wire)
	net.NeighborSend(0, from, geometry.X, geometry.Minus, 9, wire) // reuses hop 1
	links, bytes, _ := net.Stats()
	if links != 7 {
		t.Fatalf("line broadcast over 8 nodes: %d links, want 7", links)
	}
	if want := int64(8 * p.TorusWireBytes(1000)); bytes != want {
		t.Fatalf("bytes = %d, want %d", bytes, want)
	}
}

func TestLinkRejectsBadDirection(t *testing.T) {
	_, net, _ := newNet(t, 2, 2, 2)
	for _, tc := range []struct {
		dim  geometry.Dim
		dir  geometry.Dir
		lane int
	}{
		{geometry.NumDims, geometry.Plus, 0},
		{geometry.X, 0, 0},
		{geometry.X, 2, 0},
		{geometry.X, geometry.Plus, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Link(%d, %d, lane %d) did not panic", tc.dim, tc.dir, tc.lane)
				}
			}()
			net.Link(geometry.XYZ(0, 0, 0), tc.dim, tc.dir, tc.lane)
		}()
	}
}

// TestHopPathAllocationFree: once a network's links exist, the per-hop
// entry points allocate nothing.
func TestHopPathAllocationFree(t *testing.T) {
	_, net, _ := newNet(t, 8, 4, 4)
	src, dst := geometry.XYZ(1, 0, 3), geometry.XYZ(6, 3, 1)
	var arr []Arrival
	srcID, wire := net.Geometry().NodeID(src), net.WireBytes(4096)
	lineBcast := func() { arr, _ = net.LineBcast(arr[:0], 0, srcID, geometry.Y, geometry.Minus, 3, wire) }
	unicast := func() { net.Unicast(0, src, dst, 12, 4096) }
	neighbor := func() { net.NeighborSend(0, srcID, geometry.Z, geometry.Plus, 7, wire) }
	for _, tc := range []struct {
		name string
		f    func()
	}{{"LineBcast", lineBcast}, {"Unicast", unicast}, {"NeighborSend", neighbor}} {
		tc.f() // create the links and size the arrivals buffer
		if a := testing.AllocsPerRun(100, tc.f); a != 0 {
			t.Errorf("%s: %v allocations per call on a warmed network", tc.name, a)
		}
	}
}

// TestWireBytesMatchesParams: the network's copied wire constants give the
// same packetization as hw.Params.TorusWireBytes.
func TestWireBytesMatchesParams(t *testing.T) {
	odd := hw.DefaultParams()
	odd.TorusPayloadBytes, odd.TorusPacketBytes = 100, 132
	for _, p := range []hw.Params{hw.DefaultParams(), odd} {
		geom, err := geometry.NewTorus(2, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		net := New(sim.New(), geom, p)
		sizes := []int{-1, 0, 1, 4 << 20}
		for k := 1; k <= 4; k++ {
			b := k * p.TorusPayloadBytes
			sizes = append(sizes, b-1, b, b+1)
		}
		for _, n := range sizes {
			if got, want := net.WireBytes(n), p.TorusWireBytes(n); got != want {
				t.Errorf("payload %d/%d: WireBytes(%d) = %d, want %d", p.TorusPayloadBytes, p.TorusPacketBytes, n, got, want)
			}
		}
	}
}

// TestUnicastAllPairs: a dimension-ordered route never crosses a link
// twice, so on a fresh network every pair's unicast is pure cut-through over
// HopDistance links, each created once.
func TestUnicastAllPairs(t *testing.T) {
	_, net, p := newNet(t, 5, 4, 3)
	geom := net.Geometry()
	per := sim.TransferTime(p.TorusWireBytes(300), p.TorusLinkBps)
	for s := 0; s < geom.Nodes(); s++ {
		for d := 0; d < geom.Nodes(); d++ {
			src, dst := geom.CoordOf(s), geom.CoordOf(d)
			hops := geom.HopDistance(src, dst)
			if hops == 0 {
				continue
			}
			_, fresh, _ := newNet(t, 5, 4, 3)
			want := sim.Time(hops-1)*p.TorusHopLatency + per + p.TorusHopLatency
			if got := fresh.Unicast(0, src, dst, 0, 300); got != want {
				t.Fatalf("%v -> %v: arrival %v, want %v", src, dst, got, want)
			}
			if links, _, _ := fresh.Stats(); links != hops {
				t.Fatalf("%v -> %v: %d links used, want %d", src, dst, links, hops)
			}
		}
	}
}
