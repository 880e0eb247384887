// Sharded-mode broadcast streams: the collective network as a hub-shard
// service.
//
// On a sharded partition (hw.Config.Shards > 1) the per-chunk Op/Event
// protocol of tree.go cannot work: every node would wait on events owned by
// whichever shard created them, and the combine state would be mutated from
// many shards at once. Instead the network lives on the kernel's hub shard
// and each node opens a Stream per broadcast:
//
//   - Opening a stream creates a per-node delivered-chunk counter on the
//     node's shard and registers it with the hub (a PostCall at the opening
//     instant — hubs run after the peer phase of the same window, so the
//     registration is processed before any same-or-later-time injection).
//   - Inject posts a pointer-lean PostHook carrying (stream key, chunk) and
//     the payload size. The hub counts injections exactly like Op.Inject
//     and, on the last one, reserves the shared channel at the injection
//     instant — the hub's clock equals the posted time when the hook runs —
//     so the chunk's wire occupancy and delivery time reproduce the serial
//     protocol's arithmetic.
//   - Delivery is a PostAdd of one chunk to every member counter at the
//     delivery instant. Chunks of one stream complete in index order (each
//     node injects in order and the channel serializes), so "chunk i
//     delivered" is exactly "counter >= i+1", and waiters use WaitGE where
//     the serial protocol waits on the chunk's event.
//
// Delivery timing: at = reserve-done + traversal latency >= now + Latency(),
// and the kernel lookahead of a sharded machine is min(BarrierLatency,
// Latency()) (see machine.New), so the hub-to-peer post always satisfies the
// conservative contract.
package tree

import (
	"fmt"

	"bgpcoll/internal/sim"
)

// streamChunkBits encodes (stream key, chunk index) into one PostHook
// operand; a stream may carry up to 2^20 chunks.
const streamChunkBits = 20

// Stream is one node's handle on one sharded-mode broadcast: the injection
// side posts chunks to the hub, the reception side waits on the node-local
// delivered-chunk counter.
type Stream struct {
	net       *Network
	sh        *sim.Shard
	key       int64
	delivered *sim.Counter
}

// NewStream opens the per-node stream for the broadcast identified by key
// (the collective sequence number — identical on every node of one
// broadcast). sh is the opening node's shard; every node participating in
// the broadcast must open its stream before its first Inject.
func (n *Network) NewStream(sh *sim.Shard, key int64, chunks int) *Stream {
	s := &Stream{
		net:       n,
		sh:        sh,
		key:       key,
		delivered: sh.NewCounterf("tree.bc%d.delivered", int32(key)),
	}
	c := s.delivered
	sh.PostCall(sh.Now(), n.sh, func() { n.join(key, c, chunks) })
	return s
}

// Delivered returns the node-local counter of fully delivered chunks: chunk
// i has reached this node once the counter is at least i+1.
func (s *Stream) Delivered() *sim.Counter { return s.delivered }

// Inject records this node's contribution to one chunk at the caller's
// current instant (the caller has already consumed the injecting core's
// time), the sharded analog of Op.Inject.
//
//bgplint:hot
func (s *Stream) Inject(chunk, payload int) {
	s.sh.PostHook(s.sh.Now(), s.net.sh, s.net,
		s.key<<streamChunkBits|int64(chunk), int64(payload))
}

// hubBcast is the hub-side state of one broadcast: the member counters in
// registration (merge) order and the per-chunk injection counts.
type hubBcast struct {
	members []*sim.Counter
	chunks  int
	fired   int
	ops     []hubOp
}

type hubOp struct {
	injected int
}

// join registers one node's delivered counter; runs on the hub shard.
func (n *Network) join(key int64, delivered *sim.Counter, chunks int) {
	b := n.bcasts[key]
	if b == nil {
		if n.bcasts == nil {
			n.bcasts = make(map[int64]*hubBcast)
		}
		b = &hubBcast{chunks: chunks}
		n.bcasts[key] = b
	}
	if b.chunks != chunks {
		panic(fmt.Sprintf("tree: stream %d opened with %d chunks, joined with %d",
			key, b.chunks, chunks))
	}
	b.members = append(b.members, delivered)
}

// RunPost implements sim.PostHandler: one node's injection of one chunk,
// running on the hub shard at the injection instant. The last injection
// reserves the shared channel and posts the delivery to every member.
//
//bgplint:hot
func (n *Network) RunPost(a, b int64) {
	key, chunk := a>>streamChunkBits, int(a&(1<<streamChunkBits-1))
	bc := n.bcasts[key]
	if bc == nil {
		panic(fmt.Sprintf("tree: injection into unknown stream %d", key))
	}
	for chunk >= len(bc.ops) {
		bc.ops = append(bc.ops, hubOp{})
	}
	op := &bc.ops[chunk]
	op.injected++
	if op.injected > n.nodes {
		panic(fmt.Sprintf("tree: stream %d chunk %d: more injections than nodes", key, chunk))
	}
	if op.injected < n.nodes {
		return
	}
	done := n.pipe.Reserve(n.WireBytes(int(b)))
	at := done + n.Latency()
	for _, c := range bc.members {
		n.sh.PostAdd(at, c, 1)
	}
	bc.fired++
	if bc.fired == bc.chunks {
		delete(n.bcasts, key)
	}
}
