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
	p    hw.Params

	links map[linkKey]*sim.Pipe
}

type linkKey struct {
	node int
	dim  geometry.Dim
	dir  geometry.Dir
	lane int
}

// New creates the torus network for the given geometry and parameters.
func New(k *sim.Kernel, geom geometry.Torus, p hw.Params) *Network {
	return &Network{k: k, geom: geom, p: p, links: make(map[linkKey]*sim.Pipe)}
}

// Geometry returns the torus dimensions.
func (n *Network) Geometry() geometry.Torus { return n.geom }

// Link returns the directed link leaving `from` along (dim, dir) on the given
// color lane, creating it on first use.
func (n *Network) Link(from geometry.Coord, dim geometry.Dim, dir geometry.Dir, lane int) *sim.Pipe {
	key := linkKey{node: n.geom.NodeID(from), dim: dim, dir: dir, lane: lane}
	if l, ok := n.links[key]; ok {
		return l
	}
	l := n.k.NewPipe(
		fmt.Sprintf("torus.%d.%v%v.l%d", key.node, dim, dir, lane),
		n.p.TorusLinkBps, 0,
	)
	n.links[key] = l
	return l
}

// WireBytes returns the on-wire size of a payload, including packet headers.
func (n *Network) WireBytes(payload int) int { return n.p.TorusWireBytes(payload) }

// Arrival describes one node's reception of a line broadcast or unicast.
type Arrival struct {
	Node geometry.Coord
	At   sim.Time // when the last byte has arrived at the node's torus port
}

// LineBcast injects one chunk at node `from` no earlier than `start`, with
// the deposit bit set, along dimension d in direction dir: every other node
// on the line receives the chunk (paper §III-A). The arrivals are appended to
// dst in hop order, so a caller that passes its own scratch (dst[:0])
// allocates nothing per chunk; firstStart is when the chunk actually entered
// the first link (used by callers to pace injection against link drain).
// Cut-through: the transfer on hop k starts one hop latency after hop k-1's
// start and each link is occupied for the full wire time.
func (n *Network) LineBcast(dst []Arrival, start sim.Time, from geometry.Coord, d geometry.Dim, dir geometry.Dir, lane, payload int) (arrivals []Arrival, firstStart sim.Time) {
	wire := n.WireBytes(payload)
	size := n.geom.Size(d)
	arrivals = dst
	cur := from
	hopStart := start
	firstStart = start
	for hop := 1; hop < size; hop++ {
		link := n.Link(cur, d, dir, lane)
		var done sim.Time
		hopStart, done = link.ReserveAt(hopStart, wire)
		if hop == 1 {
			firstStart = hopStart
		}
		done += n.p.TorusHopLatency
		cur = n.geom.Neighbor(cur, d, dir)
		arrivals = append(arrivals, Arrival{Node: cur, At: done})
		hopStart += n.p.TorusHopLatency
	}
	return arrivals, firstStart
}

// Unicast sends one chunk from src to dst along the dimension-ordered route
// (no deposit bit), starting no earlier than start, and returns the arrival
// time at dst. Zero-hop transfers (src == dst) complete immediately at start.
func (n *Network) Unicast(start sim.Time, src, dst geometry.Coord, lane, payload int) sim.Time {
	wire := n.WireBytes(payload)
	hops := n.geom.Route(src, dst)
	if len(hops) == 0 {
		return maxTime(start, n.k.Now())
	}
	hopStart := start
	var done sim.Time
	for _, h := range hops {
		link := n.Link(h.From, h.Dim, h.Dir, lane)
		hopStart, done = link.ReserveAt(hopStart, wire)
		done += n.p.TorusHopLatency
		hopStart += n.p.TorusHopLatency
	}
	return done
}

// NeighborSend sends one chunk to the adjacent node along (d, dir): the
// single-hop special case used by chain reduce schedules.
func (n *Network) NeighborSend(start sim.Time, from geometry.Coord, d geometry.Dim, dir geometry.Dir, lane, payload int) (to geometry.Coord, at sim.Time) {
	wire := n.WireBytes(payload)
	link := n.Link(from, d, dir, lane)
	_, done := link.ReserveAt(start, wire)
	return n.geom.Neighbor(from, d, dir), done + n.p.TorusHopLatency
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
	//bgplint:allow maporder -- integer sums of a pure per-link getter commute
	for _, l := range n.links {
		b, bu, _ := l.Stats()
		bytes += b
		//bgplint:allow vtime -- report-only utilization sum; commutative and never fed back into scheduling
		busy += bu
		links++
	}
	return links, bytes, busy
}
