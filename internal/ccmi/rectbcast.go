package ccmi

import (
	"fmt"

	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/torus"
	"bgpcoll/internal/trace"
)

// Bcast executes the multi-color rectangle broadcast over the torus
// (paper §V-A). The message is split across the colors; each color pumps its
// partition chunk by chunk down its edge-disjoint spanning tree, pacing
// injection against the drain of the root's link. Every hop charges the
// forwarding node's DMA engine for injection and the receiving node's DMA
// engine for reception, so quad-mode algorithms that additionally use the
// DMA for intra-node copies contend exactly as on the real machine.
//
// Completion is observable per node through the Deliveries logs.
//
// A Bcast may be Run again once every node has received the previous
// broadcast: its color runs keep their span lists and stage handlers, so a
// recycled Bcast allocates nothing.
type Bcast struct {
	M          *machine.Machine
	Root       geometry.Coord
	Src        data.Buf    // the root's source buffer
	Bufs       []data.Buf  // per node: where delivered data lands (nil or zero = timing only)
	Deliveries []*Delivery // per node: arrival logs (required)
	Colors     []geometry.Color
	Lane0      int // first link lane; color i uses lane Lane0+i

	// Hook, if set, observes every per-node delivery at its virtual time,
	// before the Delivery log records it. Algorithms use it to chain
	// DMA-driven intra-node distribution onto network arrivals.
	Hook DeliveryHook

	rootID int
	runs   []colorRun // one per color, re-armed by every Run
}

// DeliveryHook observes a schedule's per-node deliveries (Bcast.Hook).
type DeliveryHook interface {
	Delivered(node int, span hw.Span, t sim.Time)
}

// maxColors bounds a schedule's color count: the six torus colors.
const maxColors = 6

// fit returns s resized to n elements, reusing its backing array when it is
// large enough. A fresh array starts zeroed; callers re-arm every element.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Run starts all color pumps at the current virtual time and returns
// immediately; progress continues event-driven.
func (b *Bcast) Run() {
	if len(b.Deliveries) != b.M.Geom.Nodes() {
		panic("ccmi: Bcast needs one Delivery per node")
	}
	b.rootID = b.M.Geom.NodeID(b.Root)
	var offs, lens [maxColors]int
	nc := len(b.Colors)
	geometry.SplitAlignedTo(offs[:nc], lens[:nc], b.Src.Len(), 1)
	b.runs = fit(b.runs, nc)
	chunks := 0
	for i, color := range b.Colors {
		cr := &b.runs[i]
		cr.arm(b.M, b.Root, color, b.Lane0+i, b, lens[i], offs[i])
		chunks += len(cr.spans)
	}
	presize(b.Deliveries, chunks)
	for i := range b.runs {
		cr := &b.runs[i]
		cr.readyChunks = len(cr.spans) // plain broadcast: everything ready now
		cr.pump()
	}
}

// deliver is the broadcast's per-node delivery: the hook, the functional
// payload copy, then the log.
//
//bgplint:hot
func (b *Bcast) deliver(node int, span hw.Span, t sim.Time) {
	if b.Hook != nil {
		b.Hook.Delivered(node, span, t)
	}
	if node != b.rootID && b.Bufs != nil {
		copyAt(b.M.K, t, b.Bufs[node], b.Src, span)
	}
	b.Deliveries[node].Deliver(b.M.K, t, span)
}

// deliverer is what a color run reports each per-node delivery to: the
// broadcast it belongs to, or the allreduce whose down phase it runs.
type deliverer interface {
	deliver(node int, span hw.Span, t sim.Time)
}

// colorRun drives one color's spanning tree. It is shared between Bcast and
// the down-phase of Allreduce (which gates chunk injection on reduction
// completion via readyChunks).
//
// Every step of the pipeline is a stage handler bound once per run and
// scheduled with sim.Kernel.HookAt, its (node, chunk) identity carried in
// the hook's operands, so the schedule allocates nothing per chunk. A run is
// re-armed in place for its owner's next schedule (arm); the pacing retry
// carries the run's generation, so a retry left queued by the previous
// schedule cannot pump the next one.
//
// What a stage handler needs of the geometry and the wire format is fixed
// for the whole schedule, so arm tabulates it: each chunk's wire bytes and
// each node's forwarding duties. A handler indexes the tables by its
// operands and computes no coordinate, route or packet count.
type colorRun struct {
	m      *machine.Machine
	root   geometry.Coord
	rootID int
	color  geometry.Color
	lane   int
	to     deliverer

	dims    []geometry.Dim // color order restricted to dimensions of size > 1
	w       geometry.Coord // the root's d0 predecessor: owner of the mirror plane
	patchTo int            // node ID offset from a mirror-plane node to the column node it patches

	spans       []hw.Span // absolute chunk spans, in pump order
	wire        []int     // per chunk: the span's on-wire bytes
	duty        []duty    // per node: its forwarding duties
	next        int       // next chunk to inject
	readyChunks int       // chunks permitted to inject (monotone)
	gate        sim.Time  // pacing: next injection may not precede this
	pumping     bool
	gen         int64 // arm count: tags pacing retries

	arrivals []torus.Arrival // LineBcast scratch, reused by every injection

	pumpH    pumpStage
	injectH  rootInjectStage
	arriveH  arriveStage
	receiveH receiveStage
	lineH    [geometry.NumDims]lineStage
}

// The color run's stage handlers. Each RunPost is one scheduled step.
type (
	pumpStage       struct{ cr *colorRun }
	rootInjectStage struct{ cr *colorRun }
	arriveStage     struct{ cr *colorRun }
	receiveStage    struct{ cr *colorRun }
	lineStage       struct {
		cr *colorRun
		d  geometry.Dim
	}
)

// duty packs a node's forwarding duties (colorRun.duties) into a byte: the
// low bits index in dims the first dimension the node line-broadcasts
// along, so its lines are dims[first:] (none when first is len(dims)), and
// dutyPatch marks the one-hop mirror patch.
type duty uint8

const (
	dutyPatch duty = 1 << 2
	dutyFirst duty = dutyPatch - 1 // mask of the first line's index
)

// arm (re)initializes the run for one schedule: the partition of n bytes at
// baseOff, chunked by the machine's parameters, reported to to. Every field
// is overwritten; the span, dimension, table and arrival lists keep their
// capacity.
func (cr *colorRun) arm(m *machine.Machine, root geometry.Coord, color geometry.Color, lane int, to deliverer, n, baseOff int) {
	cr.m, cr.root, cr.color, cr.lane, cr.to = m, root, color, lane, to
	cr.rootID = m.Geom.NodeID(root)
	cr.spans = m.Cfg.Params.AppendChunks(cr.spans[:0], n)
	cr.wire = fit(cr.wire, len(cr.spans))
	for i := range cr.spans {
		cr.spans[i].Off += baseOff
		cr.wire[i] = m.Torus.WireBytes(cr.spans[i].Len)
	}
	cr.dims = cr.dims[:0]
	for _, d := range color.Order {
		if m.Geom.Size(d) > 1 {
			cr.dims = append(cr.dims, d)
		}
	}
	cr.w, cr.patchTo = geometry.Coord{}, 0
	if len(cr.dims) > 0 {
		cr.w = m.Geom.Neighbor(root, cr.dims[0], -color.Dir)
		// A patching node differs from the root column only in its d0
		// coordinate, which is w's: its mirror is a constant ID offset away.
		cr.patchTo = cr.rootID - m.Geom.NodeID(cr.w)
	}
	cr.duty = fit(cr.duty, m.Geom.Nodes())
	for id := range cr.duty {
		if id == cr.rootID {
			cr.duty[id] = duty(len(cr.dims)) // the root injects; it never forwards
			continue
		}
		lines, patch := cr.duties(m.Geom.CoordOf(id))
		cr.duty[id] = duty(len(cr.dims) - len(lines))
		if patch {
			cr.duty[id] |= dutyPatch
		}
	}
	cr.next, cr.readyChunks, cr.gate, cr.pumping = 0, 0, 0, false
	cr.gen++
	cr.pumpH = pumpStage{cr}
	cr.injectH = rootInjectStage{cr}
	cr.arriveH = arriveStage{cr}
	cr.receiveH = receiveStage{cr}
	for d := range cr.lineH {
		cr.lineH[d] = lineStage{cr, geometry.Dim(d)}
	}
}

// allowChunks raises the injection permit to n chunks and restarts the pump.
func (cr *colorRun) allowChunks(n int) {
	if n > cr.readyChunks {
		cr.readyChunks = n
	}
	cr.pump()
}

// pump injects the next permitted chunk. Re-entrant safe: only one injection
// chain is in flight at a time; pacing continues from the link drain.
//
//bgplint:hot
func (cr *colorRun) pump() {
	if cr.pumping || cr.next >= len(cr.spans) || cr.next >= cr.readyChunks {
		return
	}
	cr.pumping = true
	chunk := cr.next
	span := cr.spans[chunk]
	cr.next++
	k := cr.m.K

	start := maxTime(cr.gate, k.Now())
	if cr.m.Trace.Enabled() {
		cr.m.Trace.Addf(start, trace.Proto, cr.rootID,
			"bcast %v pump chunk [%d:%d)", cr.color, span.Off, span.Off+span.Len)
	}
	// The root's master sees the chunk locally as it is injected, pacing
	// the root node's own intra-node pipeline with the network.
	cr.to.deliver(cr.rootID, span, start)

	if len(cr.dims) == 0 { // single-node partition: nothing to send
		cr.pumping = false
		k.HookAt(start, &cr.pumpH, cr.gen, 0)
		return
	}

	injDone := cr.m.Node(cr.rootID).DMA.Inject(start, cr.wire[chunk])
	k.HookAt(injDone, &cr.injectH, int64(chunk), 0)
}

// RunPost retries the pump once pacing allows the next injection, unless
// the run has been re-armed since the retry was queued.
//
//bgplint:hot
func (s *pumpStage) RunPost(gen, _ int64) {
	if gen == s.cr.gen {
		s.cr.pump()
	}
}

// RunPost runs when the root's DMA has injected chunk: the chunk enters the
// root's d0 line, and the next chunk may inject once this one has entered
// the first link.
//
//bgplint:hot
func (s *rootInjectStage) RunPost(chunk, _ int64) {
	cr := s.cr
	k := cr.m.K
	var firstStart sim.Time
	cr.arrivals, firstStart = cr.m.Torus.LineBcast(cr.arrivals[:0], k.Now(), cr.rootID, cr.dims[0], cr.color.Dir, cr.lane, cr.wire[chunk])
	for _, a := range cr.arrivals {
		cr.arrive(a.Node, chunk, a.At)
	}
	cr.gate = firstStart
	cr.pumping = false
	k.HookAt(maxTime(firstStart, k.Now()), &cr.pumpH, cr.gen, 0)
}

// arrive schedules the network arrival of chunk at node.
//
//bgplint:hot
func (cr *colorRun) arrive(node int, chunk int64, netAt sim.Time) {
	cr.m.K.HookAt(netAt, &cr.arriveH, int64(node), chunk)
}

// RunPost processes the network arrival of chunk at node: DMA reception.
//
//bgplint:hot
func (s *arriveStage) RunPost(node, chunk int64) {
	cr := s.cr
	k := cr.m.K
	rx := cr.m.Node(int(node)).DMA.Receive(k.Now(), cr.wire[chunk])
	k.HookAt(rx, &cr.receiveH, node, chunk)
}

// RunPost runs when node's DMA has received chunk: delivery, then the
// node's forwarding duties in the spanning tree.
//
//bgplint:hot
func (s *receiveStage) RunPost(node, chunk int64) {
	cr := s.cr
	now := cr.m.K.Now()
	span := cr.spans[chunk]
	if cr.m.Trace.Enabled() {
		cr.m.Trace.Addf(now, trace.Net, int(node),
			"bcast %v chunk [%d:%d) delivered", cr.color, span.Off, span.Off+span.Len)
	}
	cr.to.deliver(int(node), span, now)
	cr.forward(node, chunk)
}

// forward executes node's spanning-tree duties for one chunk: an optional
// one-hop mirror patch toward the root column, then deposit-bit line
// broadcasts along each later dimension. Successive injections serialize on
// the node's DMA engine.
//
//bgplint:hot
func (cr *colorRun) forward(node, chunk int64) {
	du := cr.duty[node]
	wire := cr.wire[chunk]
	t := cr.m.K.Now()
	dma := cr.m.Node(int(node)).DMA
	if du&dutyPatch != 0 {
		injDone := dma.Inject(t, wire)
		at := cr.m.Torus.NeighborSend(injDone, int(node), cr.dims[0], cr.color.Dir, cr.lane, wire)
		cr.arrive(int(node)+cr.patchTo, chunk, at)
		t = injDone
	}
	for _, d := range cr.dims[du&dutyFirst:] {
		injDone := dma.Inject(t, wire)
		cr.m.K.HookAt(injDone, &cr.lineH[d], node, chunk)
		t = injDone
	}
}

// RunPost runs when node's DMA has injected chunk into its line along s.d:
// the deposit-bit broadcast reaches every other node on the line.
//
//bgplint:hot
func (s *lineStage) RunPost(node, chunk int64) {
	cr := s.cr
	cr.arrivals, _ = cr.m.Torus.LineBcast(cr.arrivals[:0], cr.m.K.Now(), int(node), s.d, cr.color.Dir, cr.lane, cr.wire[chunk])
	for _, a := range cr.arrivals {
		cr.arrive(a.Node, chunk, a.At)
	}
}

// duties returns the dimensions along which v must line-broadcast and
// whether v performs the one-hop mirror patch. See the package comment for
// the tree construction; TestBcastSpanningTree verifies single coverage.
// arm tabulates it for every node but the root (colorRun.duty).
func (cr *colorRun) duties(v geometry.Coord) (lines []geometry.Dim, patch bool) {
	if v == cr.root {
		panic("ccmi: duties of root")
	}
	d0 := cr.dims[0]
	if v.Get(d0) == cr.root.Get(d0) {
		return nil, false // patched column: subtree covered by mirrors
	}
	last := 0
	for i, d := range cr.dims {
		if v.Get(d) != cr.root.Get(d) {
			last = i
		}
	}
	return cr.dims[last+1:], v.Get(d0) == cr.w.Get(d0) && v != cr.w
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}

func (cr *colorRun) String() string {
	return fmt.Sprintf("colorRun{%v lane %d, %d chunks}", cr.color, cr.lane, len(cr.spans))
}
