// Package geometry describes the 3D-torus node layout of a Blue Gene/P
// partition: coordinates, rank mappings, lines along dimensions, neighbor
// relations, and the edge-disjoint "colors" used by the multi-color
// spanning-tree collective algorithms.
package geometry

import "fmt"

// Dim identifies a torus dimension.
type Dim int

// Torus dimensions.
const (
	X Dim = iota
	Y
	Z
	NumDims
)

func (d Dim) String() string {
	switch d {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Dir is a direction along a dimension: +1 or -1.
type Dir int

// Directions.
const (
	Plus  Dir = 1
	Minus Dir = -1
)

func (d Dir) String() string {
	if d == Plus {
		return "+"
	}
	return "-"
}

// Coord is a node coordinate in the torus.
type Coord struct{ X, Y, Z int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Get returns the coordinate along dimension d.
func (c Coord) Get(d Dim) int {
	switch d {
	case X:
		return c.X
	case Y:
		return c.Y
	case Z:
		return c.Z
	}
	panic("geometry: bad dimension")
}

// With returns a copy of c with dimension d set to v.
func (c Coord) With(d Dim, v int) Coord {
	switch d {
	case X:
		c.X = v
	case Y:
		c.Y = v
	case Z:
		c.Z = v
	default:
		panic("geometry: bad dimension")
	}
	return c
}

// Torus is a 3D torus of DX x DY x DZ nodes.
type Torus struct{ DX, DY, DZ int }

// NewTorus validates the dimensions and returns the torus.
func NewTorus(dx, dy, dz int) (Torus, error) {
	if dx < 1 || dy < 1 || dz < 1 {
		return Torus{}, fmt.Errorf("geometry: invalid torus %dx%dx%d", dx, dy, dz)
	}
	return Torus{DX: dx, DY: dy, DZ: dz}, nil
}

func (t Torus) String() string { return fmt.Sprintf("%dx%dx%d", t.DX, t.DY, t.DZ) }

// Nodes returns the total node count.
func (t Torus) Nodes() int { return t.DX * t.DY * t.DZ }

// Size returns the extent of dimension d.
func (t Torus) Size(d Dim) int {
	switch d {
	case X:
		return t.DX
	case Y:
		return t.DY
	case Z:
		return t.DZ
	}
	panic("geometry: bad dimension")
}

// Contains reports whether c is a valid coordinate in t.
func (t Torus) Contains(c Coord) bool {
	return c.X >= 0 && c.X < t.DX && c.Y >= 0 && c.Y < t.DY && c.Z >= 0 && c.Z < t.DZ
}

// NodeID maps a coordinate to a dense node identifier in [0, Nodes()).
// X varies fastest, matching BG/P's default XYZ mapping.
func (t Torus) NodeID(c Coord) int {
	if !t.Contains(c) {
		panic(fmt.Sprintf("geometry: coordinate %v outside %v", c, t))
	}
	return c.X + t.DX*(c.Y+t.DY*c.Z)
}

// CoordOf is the inverse of NodeID.
func (t Torus) CoordOf(id int) Coord {
	if id < 0 || id >= t.Nodes() {
		panic(fmt.Sprintf("geometry: node id %d outside %v", id, t))
	}
	return Coord{
		X: id % t.DX,
		Y: (id / t.DX) % t.DY,
		Z: id / (t.DX * t.DY),
	}
}

// Neighbor returns the coordinate one hop from c along (d, dir), with
// wrap-around.
func (t Torus) Neighbor(c Coord, d Dim, dir Dir) Coord {
	n := t.Size(d)
	v := (c.Get(d) + int(dir) + n) % n
	return c.With(d, v)
}

// Line returns the coordinates along dimension d through c, starting at c and
// walking in direction dir, excluding c itself. On a torus the line visits
// every other node in the dimension exactly once (Size(d)-1 nodes).
func (t Torus) Line(c Coord, d Dim, dir Dir) []Coord {
	n := t.Size(d)
	out := make([]Coord, 0, n-1)
	cur := c
	for i := 1; i < n; i++ {
		cur = t.Neighbor(cur, d, dir)
		out = append(out, cur)
	}
	return out
}

// HopDistance returns the minimum hop count between a and b using torus
// wrap-around in each dimension.
func (t Torus) HopDistance(a, b Coord) int {
	total := 0
	for d := X; d < NumDims; d++ {
		n := t.Size(d)
		diff := a.Get(d) - b.Get(d)
		if diff < 0 {
			diff = -diff
		}
		if n-diff < diff {
			diff = n - diff
		}
		total += diff
	}
	return total
}

// RouteLeg returns the dimension-d leg of the dimension-ordered (XYZ)
// shortest route from cur to dst: its direction, the shorter way around the
// ring (Plus on a tie), and its hop count. A route walks the X, Y and Z legs
// in turn.
func (t Torus) RouteLeg(cur, dst Coord, d Dim) (Dir, int) {
	n := t.Size(d)
	fwd := (dst.Get(d) - cur.Get(d) + n) % n
	if fwd > n-fwd {
		return Minus, n - fwd
	}
	return Plus, fwd
}

// XYZ is a convenience constructor for Coord used by cross-package callers.
func XYZ(x, y, z int) Coord { return Coord{X: x, Y: y, Z: z} }
