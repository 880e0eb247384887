// Package tree models the BG/P collective network (paper §III-A): a tree
// topology spanning all compute nodes with an integer ALU at each hop,
// supporting reliable combine/broadcast at 850 MB/s.
//
// Broadcast on this network uses the hardware allreduce feature: the root
// injects data while every other node injects zeros into a global OR; the
// combined result is routed back down to all leaves. Two consequences shape
// the paper's algorithms and are modeled here:
//
//   - There is no DMA on this network: packet injection and reception are
//     performed by processor cores, so core time is consumed proportionally
//     to the data moved (charged by the callers via hw.Params.TreeCoreTouchBps).
//   - A combine for a chunk cannot complete until every node has injected
//     its contribution, and the result reaches the leaves one tree traversal
//     later.
//
// The shared channel is a single bandwidth pipe (one chunk occupies the whole
// tree for its wire time, up and down phases being hardware-pipelined); the
// traversal latency is proportional to the partition's tree depth.
package tree

import (
	"fmt"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// Network is the collective network of one partition.
type Network struct {
	k     *sim.Kernel
	pipe  *sim.Pipe
	depth int
	nodes int
	ops   int32

	// The wire constants the per-chunk path reads, copied out of hw.Params
	// so the network does not hold the whole parameter set.
	hopLatency   sim.Time
	touchBps     float64 // core packet-touch rate
	payloadBytes int     // payload per packet
	packetBytes  int     // wire size of one packet
}

// New creates the collective network on kernel k. The tree's traversal
// depth follows the physical wiring along the torus dimensions: DX+DY+DZ
// hops.
func New(k *sim.Kernel, geom geometry.Torus, p hw.Params) *Network {
	return &Network{
		k:            k,
		pipe:         k.NewPipe("tree.channel", p.TreeBps, 0),
		depth:        geom.DX + geom.DY + geom.DZ,
		nodes:        geom.Nodes(),
		hopLatency:   p.TreeHopLatency,
		touchBps:     p.TreeCoreTouchBps,
		payloadBytes: p.TreePayloadBytes,
		packetBytes:  p.TreePacketBytes,
	}
}

// Reset rewinds the network's operation counter for a fresh run on a reused
// partition (machine.Machine.Reset). The counter names every Op and its
// delivery counter ("tree.opN"), so a reused world must restart it at zero to
// reproduce a fresh world's names — deadlock reports and traces compare
// them. The channel pipe itself is rewound by the kernel.
func (n *Network) Reset() { n.ops = 0 }

// Depth returns the traversal hop count of the tree.
func (n *Network) Depth() int { return n.depth }

// Latency returns the full traversal latency: depth x per-hop latency.
func (n *Network) Latency() sim.Time { return sim.Time(n.depth) * n.hopLatency }

// Nodes returns the participating node count.
func (n *Network) Nodes() int { return n.nodes }

// WireBytes returns the on-wire size of a payload on this network
// (hw.Params.TreeWireBytes, computed from the copied constants).
//
//bgplint:hot
func (n *Network) WireBytes(payload int) int {
	if payload <= 0 {
		return 0
	}
	return (payload + n.payloadBytes - 1) / n.payloadBytes * n.packetBytes
}

// TouchTime returns the core time needed to inject or receive a payload of
// the given size (packet handling is done by cores on this network).
func (n *Network) TouchTime(payload int) sim.Time {
	return sim.TransferTime(n.WireBytes(payload), n.touchBps)
}

// Op is one chunk's global combine: every node injects once, then the
// combined result is delivered to all nodes. Arm one Op per chunk; the
// per-chunk Ops of a pipelined stream share the channel in order.
type Op struct {
	net       *Network
	id        int32 // operation number: names the op "tree.op<id>"
	wire      int
	expected  int
	injected  int
	delivered *sim.Counter // one-shot: fired at delivery
	at        sim.Time
}

// NewOp creates a combine operation for one chunk of the given payload size.
func (n *Network) NewOp(payload int) *Op {
	op := &Op{}
	n.InitOp(op, payload)
	return op
}

// InitOp arms a caller-owned op for one chunk of the given payload size —
// NewOp without the allocation, for callers that recycle their per-chunk
// ops. The op takes the next operation number and a delivery counter: the
// one it already holds, re-armed (sim.Counter.Rearm), or a freshly carved
// one when it holds none. So an op must not be re-armed while its delivery
// is pending, and an owner that keeps ops across a Kernel.Reset must zero
// them at the Reset, dropping their counters.
//
//bgplint:hot
func (n *Network) InitOp(op *Op, payload int) {
	n.ops++
	d := op.delivered
	if d != nil {
		d.Rearm("tree.op%d.delivered", n.ops)
	} else {
		d = n.k.NewCounterf("tree.op%d.delivered", n.ops)
	}
	*op = Op{
		net:       n,
		id:        n.ops,
		wire:      n.WireBytes(payload),
		expected:  n.nodes,
		delivered: d,
	}
}

// Inject records one node's contribution as complete at the current virtual
// time (the caller has already consumed the injecting core's time). When the
// last node injects, the chunk reserves the tree channel and the result is
// delivered one traversal latency later.
//
//bgplint:hot
func (op *Op) Inject() {
	op.injected++
	if op.injected > op.expected {
		panic(fmt.Sprintf("tree.op%d: more injections than nodes", op.id))
	}
	if op.injected < op.expected {
		return
	}
	done := op.net.pipe.Reserve(op.wire)
	op.at = done + op.net.Latency()
	op.net.k.HookAt(op.at, op, 0, 0)
}

// RunPost implements sim.PostHandler: the delivery Inject scheduled, at the
// (time, seq) position At(op.at, op.delivered.Fire) would take.
//
//bgplint:hot
func (op *Op) RunPost(_, _ int64) { op.delivered.Fire() }

// Delivered returns the one-shot counter fired (brought to 1) when the
// combined result has reached all leaves.
func (op *Op) Delivered() *sim.Counter { return op.delivered }

// DeliveredAt returns the delivery time; valid once Delivered has fired.
func (op *Op) DeliveredAt() sim.Time {
	if !op.delivered.Fired() {
		panic(fmt.Sprintf("tree.op%d: DeliveredAt before delivery", op.id))
	}
	return op.at
}

// Stats exposes the tree channel's utilization counters.
func (n *Network) Stats() (bytes int64, busy sim.Time, transfers int64) {
	return n.pipe.Stats()
}
