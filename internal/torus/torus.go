// Package torus models the BG/P 3D torus interconnect: six 425 MB/s links
// per node, cut-through dimension-ordered routing, and the deposit-bit line
// broadcast that the multi-color rectangle collectives are built on
// (paper §III-A).
//
// Links are modeled as serialized bandwidth pipes. A transfer over several
// hops is cut-through: the head of the message enters hop i+1 one hop
// latency after it entered hop i, and every link along the path is occupied
// for the message's full wire time. Following the paper's multi-color
// construction, links are virtualized per color lane: the rectangle
// algorithm's spanning trees are edge-disjoint by construction, so traffic
// of different colors never contends for a physical link, while traffic
// within one color serializes on its lane exactly as it would on the
// physical link.
package torus

import (
	"fmt"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// Network is the torus of one partition.
type Network struct {
	k    *sim.Kernel
	geom geometry.Torus

	// The wire constants the per-hop path reads, copied out of hw.Params so
	// a hop never copies the whole parameter set.
	linkBps      float64
	hopLatency   sim.Time
	payloadBytes int // payload per packet
	packetBytes  int // wire size of one packet

	// links is the lane-major link table, links[lane][linkSlot(node, dim,
	// dir)]. A lane's row is allocated on the lane's first use and each pipe
	// on its link's first use, so construction allocates nothing and pipes
	// register with the kernel in first-use order.
	links [][]*sim.Pipe
}

// linksPerNode is the number of directed links leaving a node: one per
// (dimension, direction).
const linksPerNode = 2 * int(geometry.NumDims)

// New creates the torus network for the given geometry and parameters.
func New(k *sim.Kernel, geom geometry.Torus, p hw.Params) *Network {
	return &Network{
		k:            k,
		geom:         geom,
		linkBps:      p.TorusLinkBps,
		hopLatency:   p.TorusHopLatency,
		payloadBytes: p.TorusPayloadBytes,
		packetBytes:  p.TorusPacketBytes,
	}
}

// Geometry returns the torus dimensions.
func (n *Network) Geometry() geometry.Torus { return n.geom }

// linkSlot is the index of the directed link leaving node along (dim, dir)
// within a lane's row: Plus is even, Minus odd.
func linkSlot(node int, dim geometry.Dim, dir geometry.Dir) int {
	return node*linksPerNode + int(dim)*2 + (1-int(dir))>>1
}

// checkLink rejects a (dim, dir) pair outside the table's layout, which
// would otherwise alias another link's slot.
func checkLink(dim geometry.Dim, dir geometry.Dir) {
	if uint(dim) >= uint(geometry.NumDims) || (dir != geometry.Plus && dir != geometry.Minus) {
		badLink(dim, dir)
	}
}

func badLink(dim geometry.Dim, dir geometry.Dir) {
	panic(fmt.Sprintf("torus: bad link direction %d/%d", int(dim), int(dir)))
}

// Link returns the directed link leaving `from` along (dim, dir) on the given
// color lane, creating it on first use.
//
//bgplint:hot
func (n *Network) Link(from geometry.Coord, dim geometry.Dim, dir geometry.Dir, lane int) *sim.Pipe {
	checkLink(dim, dir)
	return n.pipe(n.row(lane), linkSlot(n.geom.NodeID(from), dim, dir), lane)
}

// row returns the lane's row of the link table.
//
//bgplint:hot
func (n *Network) row(lane int) []*sim.Pipe {
	if uint(lane) < uint(len(n.links)) && n.links[lane] != nil {
		return n.links[lane]
	}
	return n.newRow(lane)
}

// pipe returns the link at slot of the lane's row, creating it on first use.
//
//bgplint:hot
func (n *Network) pipe(row []*sim.Pipe, slot, lane int) *sim.Pipe {
	if l := row[slot]; l != nil {
		return l
	}
	return n.newPipe(row, slot, lane)
}

// newRow is row's first-use path: it grows the table to the lane and gives
// the lane its row, one slot per directed link of the partition.
func (n *Network) newRow(lane int) []*sim.Pipe {
	if lane < 0 {
		panic(fmt.Sprintf("torus: negative lane %d", lane))
	}
	for len(n.links) <= lane {
		n.links = append(n.links, nil)
	}
	n.links[lane] = make([]*sim.Pipe, n.geom.Nodes()*linksPerNode)
	return n.links[lane]
}

// newPipe is pipe's first-use path: it creates the link's pipe, which
// registers with the kernel, and files it in the row.
func (n *Network) newPipe(row []*sim.Pipe, slot, lane int) *sim.Pipe {
	node, dim, dir := slot/linksPerNode, geometry.Dim(slot%linksPerNode/2), geometry.Plus
	if slot%2 == 1 {
		dir = geometry.Minus
	}
	l := n.k.NewPipe(fmt.Sprintf("torus.%d.%v%v.l%d", node, dim, dir, lane), n.linkBps, 0)
	row[slot] = l
	return l
}

// WireBytes returns the on-wire size of a payload, including packet headers
// (hw.Params.TorusWireBytes, computed from the copied constants).
//
//bgplint:hot
func (n *Network) WireBytes(payload int) int {
	if payload <= 0 {
		return 0
	}
	return (payload + n.payloadBytes - 1) / n.payloadBytes * n.packetBytes
}

// Arrival describes one node's reception of a line broadcast.
type Arrival struct {
	Node int      // the receiving node's ID
	At   sim.Time // when the last byte has arrived at the node's torus port
}

// ring locates node id on its ring along d: the ring's size nodes are lo,
// lo+stride, ..., lo+(size-1)*stride, in increasing coordinate along d.
func (n *Network) ring(id int, d geometry.Dim) (stride, size, lo int) {
	size = n.geom.Size(d)
	switch d {
	case geometry.X:
		stride = 1
	case geometry.Y:
		stride = n.geom.DX
	default:
		stride = n.geom.DX * n.geom.DY
	}
	return stride, size, id - id/stride%size*stride
}

// LineBcast injects one chunk of wire bytes (WireBytes of its payload) at
// node from no earlier than start, with the deposit bit set, along
// dimension d in direction dir: every other node on the line receives the
// chunk (paper §III-A). The arrivals are appended to dst in hop order, so a
// caller that passes its own scratch (dst[:0]) allocates nothing per chunk;
// firstStart is when the chunk actually entered the first link (used by
// callers to pace injection against link drain). Cut-through: the transfer
// on hop k starts one hop latency after hop k-1's start and each link is
// occupied for the full wire time.
//
// The walk steps node IDs by the dimension's stride and wraps at the ring's
// ends by comparison, so a hop costs no coordinate arithmetic.
//
//bgplint:hot
func (n *Network) LineBcast(dst []Arrival, start sim.Time, from int, d geometry.Dim, dir geometry.Dir, lane, wire int) (arrivals []Arrival, firstStart sim.Time) {
	checkLink(d, dir)
	row := n.row(lane)
	stride, size, lo := n.ring(from, d)
	span := size * stride
	hi := lo + span
	if dir == geometry.Minus {
		stride = -stride
	}
	arrivals = dst
	cur := from
	hopStart := start
	firstStart = start
	for hop := 1; hop < size; hop++ {
		link := n.pipe(row, linkSlot(cur, d, dir), lane)
		var done sim.Time
		hopStart, done = link.ReserveAt(hopStart, wire)
		if hop == 1 {
			firstStart = hopStart
		}
		done += n.hopLatency
		cur += stride
		if cur >= hi {
			cur -= span
		} else if cur < lo {
			cur += span
		}
		arrivals = append(arrivals, Arrival{Node: cur, At: done})
		hopStart += n.hopLatency
	}
	return arrivals, firstStart
}

// Unicast sends one chunk from src to dst along the dimension-ordered route
// (no deposit bit), starting no earlier than start, and returns the arrival
// time at dst. Zero-hop transfers (src == dst) complete immediately at start.
//
//bgplint:hot
func (n *Network) Unicast(start sim.Time, src, dst geometry.Coord, lane, payload int) sim.Time {
	if src == dst {
		return maxTime(start, n.k.Now())
	}
	wire := n.WireBytes(payload)
	row := n.row(lane)
	cur := src
	hopStart := start
	var done sim.Time
	for d := geometry.X; d < geometry.NumDims; d++ {
		dir, hops := n.geom.RouteLeg(cur, dst, d)
		for ; hops > 0; hops-- {
			link := n.pipe(row, linkSlot(n.geom.NodeID(cur), d, dir), lane)
			hopStart, done = link.ReserveAt(hopStart, wire)
			done += n.hopLatency
			hopStart += n.hopLatency
			cur = n.geom.Neighbor(cur, d, dir)
		}
	}
	return done
}

// NeighborSend sends one chunk of wire bytes from node from to its
// neighbor along (d, dir), the single-hop special case used by chain reduce
// schedules, and returns when it has arrived there. The caller knows the
// neighbor's ID from its own route tables.
//
//bgplint:hot
func (n *Network) NeighborSend(start sim.Time, from int, d geometry.Dim, dir geometry.Dir, lane, wire int) (at sim.Time) {
	checkLink(d, dir)
	link := n.pipe(n.row(lane), linkSlot(from, d, dir), lane)
	_, done := link.ReserveAt(start, wire)
	return done + n.hopLatency
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

// Stats aggregates all link pipes: count, total bytes carried, and summed
// busy time. Used by utilization reports.
func (n *Network) Stats() (links int, bytes int64, busy sim.Time) {
	for _, row := range n.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			b, bu, _ := l.Stats()
			bytes += b
			busy += bu
			links++
		}
	}
	return links, bytes, busy
}
