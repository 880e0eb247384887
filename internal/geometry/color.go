package geometry

import "fmt"

// Color identifies one of the edge-disjoint spanning-tree routes used by the
// multi-color rectangle collective algorithms (paper §V-A, Fig. 2). A color
// is a dimension order (the sequence of line-broadcast phases) and a travel
// direction. On a 3D torus the six colors
//
//	(XYZ,+) (YZX,+) (ZXY,+) (XYZ,-) (YZX,-) (ZXY,-)
//
// have pairwise-distinct first-hop links at the root (the six torus links),
// giving six edge-disjoint routes and an aggregate injection bandwidth of six
// links. On a mesh only the three positive-direction colors exist.
type Color struct {
	Order [3]Dim
	Dir   Dir
}

func (c Color) String() string {
	return fmt.Sprintf("%v%v%v%v", c.Order[0], c.Order[1], c.Order[2], c.Dir)
}

// FirstHop returns the (dimension, direction) of the color's first link out
// of the root, which must be unique per color for edge-disjointness.
func (c Color) FirstHop() (Dim, Dir) { return c.Order[0], c.Dir }

var dimOrders = [3][3]Dim{
	{X, Y, Z},
	{Y, Z, X},
	{Z, X, Y},
}

// TorusColors returns the six edge-disjoint colors available on a 3D torus.
func TorusColors() []Color {
	out := make([]Color, 0, 6)
	for _, dir := range []Dir{Plus, Minus} {
		for _, ord := range dimOrders {
			out = append(out, Color{Order: ord, Dir: dir})
		}
	}
	return out
}

// MeshColors returns the three edge-disjoint colors available on a 3D mesh
// (no wrap links, so only the positive direction can reach every node from
// the corner-rooted rectangle schedule).
func MeshColors() []Color {
	out := make([]Color, 0, 3)
	for _, ord := range dimOrders {
		out = append(out, Color{Order: ord, Dir: Plus})
	}
	return out
}

// Colors returns the usable color set for n requested routes (1..6),
// truncating the torus color list. The collective framework uses this to
// sweep color counts in ablation benchmarks.
func Colors(n int) []Color {
	all := TorusColors()
	if n < 1 || n > len(all) {
		panic(fmt.Sprintf("geometry: color count %d outside 1..%d", n, len(all)))
	}
	return all[:n]
}

// directedDistance returns the hop count from a to b along dimension d
// travelling only in direction dir (with wrap-around).
func (t Torus) directedDistance(a, b Coord, d Dim, dir Dir) int {
	n := t.Size(d)
	if dir == Plus {
		return ((b.Get(d)-a.Get(d))%n + n) % n
	}
	return ((a.Get(d)-b.Get(d))%n + n) % n
}

// ColorHops returns the number of link traversals from root to dst along
// color c's route: the packet walks each dimension in the color's order,
// always in the color's direction.
func (t Torus) ColorHops(c Color, root, dst Coord) int {
	total := 0
	for _, d := range c.Order {
		total += t.directedDistance(root, dst, d, c.Dir)
	}
	return total
}

// ColorDepth returns the maximum ColorHops over all nodes: the pipeline depth
// of the color's spanning tree. For a torus this is (DX-1)+(DY-1)+(DZ-1)
// regardless of root or color.
func (t Torus) ColorDepth(c Color, root Coord) int {
	max := 0
	for id := 0; id < t.Nodes(); id++ {
		if h := t.ColorHops(c, root, t.CoordOf(id)); h > max {
			max = h
		}
	}
	return max
}

// SplitColors partitions n bytes across k colors as evenly as possible, the
// first (n mod k) colors receiving one extra byte. The returned offsets and
// lengths tile [0, n) exactly; colors beyond the data receive zero-length
// partitions.
func SplitColors(n, k int) (offsets, lengths []int) {
	return SplitAligned(n, k, 1)
}

// SplitAligned partitions n bytes across k parts with every boundary a
// multiple of align (the final part absorbs the remainder). Reductions over
// doubles use align 8 so chunk arithmetic never splits an element.
func SplitAligned(n, k, align int) (offsets, lengths []int) {
	if k < 1 {
		panic("geometry: SplitAligned with k < 1 or align < 1")
	}
	offsets = make([]int, k)
	lengths = make([]int, k)
	SplitAlignedTo(offsets, lengths, n, align)
	return offsets, lengths
}

// SplitAlignedTo is SplitAligned into caller-owned slices: k is
// len(offsets), and lengths must be as long.
func SplitAlignedTo(offsets, lengths []int, n, align int) {
	k := len(offsets)
	if k < 1 || align < 1 || len(lengths) != k {
		panic("geometry: SplitAligned with k < 1 or align < 1")
	}
	base, extra := n/k, n%k
	off := 0
	for i := 0; i < k-1; i++ {
		l := base
		if i < extra {
			l++
		}
		l -= l % align
		offsets[i] = off
		lengths[i] = l
		off += l
	}
	offsets[k-1] = off
	lengths[k-1] = n - off
}
