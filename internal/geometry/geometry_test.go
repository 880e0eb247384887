package geometry

import (
	"testing"
	"testing/quick"
)

func mustTorus(t *testing.T, dx, dy, dz int) Torus {
	t.Helper()
	tor, err := NewTorus(dx, dy, dz)
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

func TestNewTorusRejectsBadDims(t *testing.T) {
	for _, dims := range [][3]int{{0, 1, 1}, {1, -1, 1}, {1, 1, 0}} {
		if _, err := NewTorus(dims[0], dims[1], dims[2]); err == nil {
			t.Errorf("NewTorus(%v) accepted", dims)
		}
	}
}

func TestNodeIDBijection(t *testing.T) {
	tor := mustTorus(t, 4, 3, 5)
	seen := make(map[int]bool)
	for x := 0; x < 4; x++ {
		for y := 0; y < 3; y++ {
			for z := 0; z < 5; z++ {
				c := Coord{x, y, z}
				id := tor.NodeID(c)
				if id < 0 || id >= tor.Nodes() {
					t.Fatalf("NodeID(%v) = %d out of range", c, id)
				}
				if seen[id] {
					t.Fatalf("NodeID(%v) = %d duplicated", c, id)
				}
				seen[id] = true
				if back := tor.CoordOf(id); back != c {
					t.Fatalf("CoordOf(NodeID(%v)) = %v", c, back)
				}
			}
		}
	}
}

func TestNodeIDBijectionProperty(t *testing.T) {
	tor := mustTorus(t, 8, 8, 16)
	f := func(id uint16) bool {
		n := int(id) % tor.Nodes()
		return tor.NodeID(tor.CoordOf(n)) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborWrap(t *testing.T) {
	tor := mustTorus(t, 4, 4, 4)
	c := Coord{3, 0, 2}
	if got := tor.Neighbor(c, X, Plus); got != (Coord{0, 0, 2}) {
		t.Errorf("X+ wrap: %v", got)
	}
	if got := tor.Neighbor(c, Y, Minus); got != (Coord{3, 3, 2}) {
		t.Errorf("Y- wrap: %v", got)
	}
}

func TestNeighborRoundTrip(t *testing.T) {
	tor := mustTorus(t, 4, 6, 2)
	f := func(id uint16, dim uint8, plus bool) bool {
		c := tor.CoordOf(int(id) % tor.Nodes())
		d := Dim(dim % 3)
		dir := Plus
		if !plus {
			dir = Minus
		}
		back := tor.Neighbor(tor.Neighbor(c, d, dir), d, -dir)
		return back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineCoversDimension(t *testing.T) {
	tor := mustTorus(t, 8, 4, 4)
	c := Coord{2, 1, 3}
	line := tor.Line(c, X, Plus)
	if len(line) != 7 {
		t.Fatalf("line length = %d", len(line))
	}
	seen := map[int]bool{c.X: true}
	for _, n := range line {
		if n.Y != c.Y || n.Z != c.Z {
			t.Fatalf("line node %v left the X line", n)
		}
		if seen[n.X] {
			t.Fatalf("line revisits x=%d", n.X)
		}
		seen[n.X] = true
	}
	if len(seen) != 8 {
		t.Fatalf("line covered %d of 8 positions", len(seen))
	}
}

func TestHopDistance(t *testing.T) {
	tor := mustTorus(t, 8, 8, 8)
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0, 0}, Coord{0, 0, 0}, 0},
		{Coord{0, 0, 0}, Coord{1, 0, 0}, 1},
		{Coord{0, 0, 0}, Coord{7, 0, 0}, 1}, // wrap
		{Coord{0, 0, 0}, Coord{4, 4, 4}, 12},
		{Coord{1, 2, 3}, Coord{5, 6, 7}, 12},
	}
	for _, c := range cases {
		if got := tor.HopDistance(c.a, c.b); got != c.want {
			t.Errorf("HopDistance(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	tor := mustTorus(t, 6, 4, 8)
	f := func(a, b uint16) bool {
		ca := tor.CoordOf(int(a) % tor.Nodes())
		cb := tor.CoordOf(int(b) % tor.Nodes())
		return tor.HopDistance(ca, cb) == tor.HopDistance(cb, ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteReachesDestination(t *testing.T) {
	tor := mustTorus(t, 4, 6, 8)
	f := func(a, b uint16) bool {
		src := tor.CoordOf(int(a) % tor.Nodes())
		dst := tor.CoordOf(int(b) % tor.Nodes())
		cur, hops := src, 0
		for d := X; d < NumDims; d++ {
			dir, n := tor.RouteLeg(cur, dst, d)
			for ; n > 0; n-- {
				cur = tor.Neighbor(cur, d, dir)
				hops++
			}
			if cur.Get(d) != dst.Get(d) {
				return false
			}
		}
		return cur == dst && hops == tor.HopDistance(src, dst)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteLeg(t *testing.T) {
	tor := mustTorus(t, 4, 5, 1)
	for _, tc := range []struct {
		from, to Coord
		d        Dim
		dir      Dir
		hops     int
	}{
		{XYZ(0, 0, 0), XYZ(1, 0, 0), X, Plus, 1},
		{XYZ(0, 0, 0), XYZ(3, 0, 0), X, Minus, 1},
		{XYZ(1, 0, 0), XYZ(3, 0, 0), X, Plus, 2}, // tie: Plus
		{XYZ(3, 0, 0), XYZ(1, 0, 0), X, Plus, 2},
		{XYZ(0, 4, 0), XYZ(0, 1, 0), Y, Plus, 2},
		{XYZ(0, 1, 0), XYZ(0, 4, 0), Y, Minus, 2},
		{XYZ(2, 2, 0), XYZ(2, 2, 0), Y, Plus, 0},
		{XYZ(2, 2, 0), XYZ(1, 3, 0), Z, Plus, 0},
	} {
		dir, hops := tor.RouteLeg(tc.from, tc.to, tc.d)
		if dir != tc.dir || hops != tc.hops {
			t.Errorf("RouteLeg(%v, %v, %v) = %v%d, want %v%d", tc.from, tc.to, tc.d, dir, hops, tc.dir, tc.hops)
		}
	}
}

func TestTorusColorsDistinctFirstHops(t *testing.T) {
	colors := TorusColors()
	if len(colors) != 6 {
		t.Fatalf("len = %d", len(colors))
	}
	seen := make(map[[2]int]bool)
	for _, c := range colors {
		d, dir := c.FirstHop()
		key := [2]int{int(d), int(dir)}
		if seen[key] {
			t.Fatalf("colors share first hop %v%v", d, dir)
		}
		seen[key] = true
	}
	if len(seen) != 6 {
		t.Fatalf("first hops cover %d of 6 root links", len(seen))
	}
}

func TestMeshColors(t *testing.T) {
	colors := MeshColors()
	if len(colors) != 3 {
		t.Fatalf("len = %d", len(colors))
	}
	for _, c := range colors {
		if c.Dir != Plus {
			t.Errorf("mesh color %v not positive", c)
		}
	}
}

func TestColorsTruncation(t *testing.T) {
	if got := len(Colors(4)); got != 4 {
		t.Fatalf("Colors(4) len = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Colors(7) did not panic")
		}
	}()
	Colors(7)
}

func TestColorHops(t *testing.T) {
	tor := mustTorus(t, 8, 8, 8)
	root := Coord{0, 0, 0}
	c := Color{Order: [3]Dim{X, Y, Z}, Dir: Plus}
	if got := tor.ColorHops(c, root, Coord{3, 2, 1}); got != 6 {
		t.Errorf("hops = %d, want 6", got)
	}
	// Negative direction wraps the other way: reaching (1,0,0) going minus
	// takes 7 hops.
	cm := Color{Order: [3]Dim{X, Y, Z}, Dir: Minus}
	if got := tor.ColorHops(cm, root, Coord{1, 0, 0}); got != 7 {
		t.Errorf("minus hops = %d, want 7", got)
	}
}

func TestColorDepth(t *testing.T) {
	tor := mustTorus(t, 4, 4, 8)
	root := Coord{1, 2, 3}
	want := 3 + 3 + 7
	for _, c := range TorusColors() {
		if got := tor.ColorDepth(c, root); got != want {
			t.Errorf("depth(%v) = %d, want %d", c, got, want)
		}
	}
}

func TestColorRouteVisitsAllNodesOnce(t *testing.T) {
	// Along a color every node has a well-defined hop distance; distances
	// group nodes into a breadth ordering that covers the torus.
	tor := mustTorus(t, 4, 4, 4)
	root := Coord{0, 0, 0}
	for _, c := range TorusColors() {
		counts := make(map[int]int)
		for id := 0; id < tor.Nodes(); id++ {
			counts[tor.ColorHops(c, root, tor.CoordOf(id))]++
		}
		if counts[0] != 1 {
			t.Errorf("color %v: %d nodes at distance 0", c, counts[0])
		}
		total := 0
		for _, n := range counts {
			total += n
		}
		if total != tor.Nodes() {
			t.Errorf("color %v covers %d nodes", c, total)
		}
	}
}

func TestSplitColors(t *testing.T) {
	offs, lens := SplitColors(10, 3)
	wantLens := []int{4, 3, 3}
	off := 0
	for i := range lens {
		if lens[i] != wantLens[i] || offs[i] != off {
			t.Fatalf("SplitColors(10,3) = %v %v", offs, lens)
		}
		off += lens[i]
	}
}

func TestSplitColorsProperty(t *testing.T) {
	f := func(n uint16, k uint8) bool {
		kk := int(k)%6 + 1
		offs, lens := SplitColors(int(n), kk)
		off := 0
		for i := range lens {
			if offs[i] != off || lens[i] < 0 {
				return false
			}
			off += lens[i]
		}
		return off == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitColorsZeroLength(t *testing.T) {
	_, lens := SplitColors(2, 6)
	nonzero := 0
	for _, l := range lens {
		if l > 0 {
			nonzero++
		}
	}
	if nonzero != 2 {
		t.Fatalf("SplitColors(2,6) lengths = %v", lens)
	}
}

func TestDimDirStrings(t *testing.T) {
	if X.String() != "X" || Y.String() != "Y" || Z.String() != "Z" {
		t.Error("Dim strings wrong")
	}
	if Plus.String() != "+" || Minus.String() != "-" {
		t.Error("Dir strings wrong")
	}
	c := Color{Order: [3]Dim{Y, Z, X}, Dir: Minus}
	if c.String() != "YZX-" {
		t.Errorf("color string = %q", c.String())
	}
}

func TestCoordWithGet(t *testing.T) {
	c := Coord{1, 2, 3}
	for d := X; d < NumDims; d++ {
		if c.With(d, 7).Get(d) != 7 {
			t.Errorf("With/Get %v", d)
		}
	}
}
