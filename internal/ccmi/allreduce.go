package ccmi

import (
	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/trace"
)

// Allreduce executes the pipelined torus allreduce network schedule of
// paper §V-C. The payload is split across Colors (three on a torus: the
// reduce phase travels on the reversed-direction links of each color's
// broadcast tree, so opposite-sign colors cannot run concurrently).
//
// Per color, each node's locally reduced contribution flows up a chain
// schedule: last-dimension lines chain into the root plane, middle-dimension
// lines into the root axis, and the first-dimension line into the root.
// Every hop combines at the node's protocol core (ProtoPipes) and charges
// DMA and links. As each chunk completes at the root it is broadcast back
// down the color's forward rectangle tree, overlapping with the reduction of
// later chunks — the paper's reduce/broadcast pipelining.
//
// Node contributions become available incrementally: rank protocols raise
// the tally Contrib with cumulative ready bytes within each color's
// partition and call Contributed, and ContribBufs[node] hold the locally
// reduced data in functional runs. Reduced results are copied into
// ResultBufs and published via Deliveries.
type Allreduce struct {
	M      *machine.Machine
	Root   geometry.Coord
	Bytes  int
	Colors []geometry.Color
	Lane0  int // reduce uses lanes Lane0+i, broadcast-down lanes Lane0+len(Colors)+i

	Contrib     []int64     // [node*len(Colors)+color]: partition bytes locally reduced
	ContribBufs []data.Buf  // per node: locally-reduced vectors (may be phantom)
	ResultBufs  []data.Buf  // per node: where the reduced result lands
	Deliveries  []*Delivery // per node: result arrival logs
	ProtoPipes  []*sim.Pipe // per node: the protocol core performing hop combines

	// ReduceOnly skips the broadcast-down phase: reduced chunks are
	// delivered to the root node only (MPI_Reduce).
	ReduceOnly bool

	rootID int
	runs   []colorReduce // one per color, re-armed by every Run
}

// Run starts the network schedule; it returns immediately and progresses
// event-driven as contributions become ready.
//
// Like Bcast, an Allreduce may be Run again once its previous schedule has
// delivered everything: its color runs, chunk states and stage handlers are
// re-armed in place.
func (a *Allreduce) Run() {
	a.rootID = a.M.Geom.NodeID(a.Root)
	var offs, lens [maxColors]int
	nc := len(a.Colors)
	geometry.SplitAlignedTo(offs[:nc], lens[:nc], a.Bytes, data.Float64Len)
	a.runs = fit(a.runs, nc)
	chunks := 0
	for i, color := range a.Colors {
		ar := &a.runs[i]
		ar.a, ar.color, ar.colorIdx, ar.lane = a, color, i, a.Lane0+i
		// The down phase reuses the rectangle broadcast machinery, gated
		// chunk by chunk on reduction completion at the root.
		ar.down.arm(a.M, a.Root, color, a.Lane0+nc+i, a, lens[i], offs[i])
		ar.init(offs[i])
		chunks += len(ar.spans)
	}
	if a.ReduceOnly {
		presize(a.Deliveries[a.rootID:a.rootID+1], chunks)
	} else {
		presize(a.Deliveries, chunks)
	}
	for i := range a.runs {
		for n := range a.runs[i].next {
			a.Contributed(n, i)
		}
	}
}

// Contributed schedules now, in chunk order, the contribution stage of each
// chunk that node's tally for color newly covers. Before Run it does
// nothing: Run schedules what the tallies cover by then, and until it does,
// a schedule is fresh (no color runs) or done (no chunk left).
//
//bgplint:hot
func (a *Allreduce) Contributed(node, color int) {
	if color >= len(a.runs) {
		return
	}
	cr, k := &a.runs[color], a.M.K
	c, have := cr.next[node], a.Contrib[node*len(a.Colors)+color]
	for ; c < len(cr.spans) && have >= int64(cr.spans[c].Off+cr.spans[c].Len-cr.baseOff); c++ {
		k.HookAt(k.Now(), &cr.contribH, int64(node), int64(c))
	}
	cr.next[node] = c
}

// deliver is the down phase's per-node delivery: the functional copy out of
// the root's result, then the log.
//
//bgplint:hot
func (a *Allreduce) deliver(node int, span hw.Span, t sim.Time) {
	if node != a.rootID {
		copyAt(a.M.K, t, a.ResultBufs[node], a.ResultBufs[a.rootID], span)
	}
	a.Deliveries[node].Deliver(a.M.K, t, span)
}

// colorReduce drives one color's reduce chains. Like colorRun, every step
// is a stage handler bound once per color and scheduled with HookAt
// carrying (node, chunk), so the chains allocate nothing per chunk; and
// like colorRun's, its handlers read the wire bytes and each node's
// successor from tables that init fills once per schedule.
type colorReduce struct {
	a        *Allreduce
	color    geometry.Color
	colorIdx int
	lane     int
	dims     []geometry.Dim // the down run's: the same color order
	spans    []hw.Span      // the down run's: the same chunks
	wire     []int          // the down run's: each chunk's wire bytes
	hops     []hop          // per node: its successor and the hop's dimension (none at the root)
	baseOff  int

	// state[node*len(spans)+chunk] counts combined input streams; a chunk
	// forwards when all streams have arrived and its combines finished.
	state []chunkState
	need  []int // input streams per node (own contribution + chains ending here)
	next  []int // per node: the first chunk its tally has not covered yet

	down colorRun

	contribH contribStage
	releaseH releaseStage
	injectH  hopInjectStage
	arriveH  hopArriveStage
	receiveH hopReceiveStage
}

// The reduce chains' stage handlers. Each RunPost is one scheduled step.
type (
	contribStage    struct{ cr *colorReduce }
	releaseStage    struct{ cr *colorReduce }
	hopInjectStage  struct{ cr *colorReduce }
	hopArriveStage  struct{ cr *colorReduce }
	hopReceiveStage struct{ cr *colorReduce }
)

// hop packs a node's reduce successor (colorReduce.succ) into 4 bytes: the
// successor's node ID above the two bits of the hop's dimension.
type hop int32

func newHop(to int, d geometry.Dim) hop { return hop(to<<2 | int(d)) }
func (h hop) to() int                   { return int(h >> 2) }
func (h hop) dim() geometry.Dim         { return geometry.Dim(h & 3) }

type chunkState struct {
	arrived int
	readyAt sim.Time // latest combine completion among arrived streams
}

// init arms the reduce side once the down run is armed: it shares the down
// run's chunks and dimensions, and every chunk state and in-edge count is
// overwritten.
func (cr *colorReduce) init(baseOff int) {
	m := cr.a.M
	cr.baseOff = baseOff
	cr.spans = cr.down.spans
	cr.wire = cr.down.wire
	cr.dims = cr.down.dims
	nodes := m.Geom.Nodes()
	cr.state = fit(cr.state, nodes*len(cr.spans))
	clear(cr.state)
	cr.need = fit(cr.need, nodes)
	cr.next = fit(cr.next, nodes)
	for n := range cr.need {
		cr.need[n], cr.next[n] = 1, 0 // own contribution, nothing covered yet
	}
	// The reduce tree is the exact reverse of the broadcast tree: each
	// node's combined partial flows to its successor. Tabulate the hops and
	// count in-edges.
	cr.hops = fit(cr.hops, nodes)
	for n := 0; n < nodes; n++ {
		cr.hops[n] = newHop(-1, 0)
		if succ, d, ok := cr.succ(m.Geom.CoordOf(n)); ok {
			to := m.Geom.NodeID(succ)
			cr.hops[n] = newHop(to, d)
			cr.need[to]++
		}
	}
	cr.contribH = contribStage{cr}
	cr.releaseH = releaseStage{cr}
	cr.injectH = hopInjectStage{cr}
	cr.arriveH = hopArriveStage{cr}
	cr.receiveH = hopReceiveStage{cr}
}

// lastDiffer returns the index in dims of the last dimension in which v
// differs from the root, or -1 for the root itself. It is the dimension
// along which v received in the broadcast tree, and along which v sends in
// the reduce chains.
func (cr *colorReduce) lastDiffer(v geometry.Coord) int {
	last := -1
	for i, d := range cr.dims {
		if v.Get(d) != cr.a.Root.Get(d) {
			last = i
		}
	}
	return last
}

// succ returns the node v forwards its combined partial to, the dimension of
// the hop, and ok=false for the root (the final accumulator). Mirroring the
// broadcast tree's patch rule, root-column nodes hand their partials to
// their mirror in the predecessor plane, so the root's ingress — and hence
// its protocol core's combine load — is a single stream per color.
func (cr *colorReduce) succ(v geometry.Coord) (geometry.Coord, geometry.Dim, bool) {
	root := cr.a.Root
	if v == root || len(cr.dims) == 0 {
		return geometry.Coord{}, 0, false
	}
	m := cr.a.M
	d0 := cr.dims[0]
	if v.Get(d0) == root.Get(d0) {
		// Root-column node: one hop into the mirror plane.
		return m.Geom.Neighbor(v, d0, -cr.color.Dir), d0, true
	}
	d := cr.dims[cr.lastDiffer(v)]
	return m.Geom.Neighbor(v, d, -cr.color.Dir), d, true
}

// RunPost runs when node's own contribution for chunk is ready;
// functionally, it is folded into the root's accumulator once.
//
//bgplint:hot
func (s *contribStage) RunPost(node, chunk int64) {
	cr := s.cr
	if t := cr.a.M.Trace; t.Enabled() {
		t.Addf(cr.a.M.K.Now(), trace.Proto, int(node), "allreduce %v chunk %d contributed", cr.color, chunk)
	}
	cr.foldContribution(int(node), cr.spans[chunk])
	cr.streamArrived(int(node), int(chunk), cr.a.M.K.Now(), 0)
}

// foldContribution adds node n's local vector for span into the root's
// result accumulator (real data only; combining is commutative, so folding
// at contribution time is equivalent to chain order for the integer-valued
// test vectors and documented as such).
func (cr *colorReduce) foldContribution(n int, span hw.Span) {
	res := cr.a.ResultBufs[cr.a.rootID]
	contrib := cr.a.ContribBufs[n]
	if res.Len() == 0 || contrib.Len() == 0 || span.Len == 0 {
		return
	}
	data.AddFloats(res.Slice(span.Off, span.Len), contrib.Slice(span.Off, span.Len))
}

// streamArrived records one input stream's chunk at node n. combineCost is
// the payload size to charge the protocol core (zero for the node's own
// contribution, which seeds the accumulator).
//
//bgplint:hot
func (cr *colorReduce) streamArrived(n, chunk int, at sim.Time, combineCost int) {
	st := &cr.state[n*len(cr.spans)+chunk]
	ready := at
	if combineCost > 0 {
		ready = cr.a.ProtoPipes[n].ReserveFrom(at, combineCost)
	}
	if ready > st.readyAt {
		st.readyAt = ready
	}
	st.arrived++
	if st.arrived > cr.need[n] {
		panic("ccmi: allreduce stream overflow")
	}
	if st.arrived == cr.need[n] {
		cr.chunkReady(n, chunk, st.readyAt)
	}
}

// chunkReady fires when node n has fully combined chunk: it forwards the
// partial down its chain, or — at the root — releases the chunk for the
// broadcast-down phase.
//
//bgplint:hot
func (cr *colorReduce) chunkReady(n, chunk int, at sim.Time) {
	m := cr.a.M
	if n != cr.a.rootID {
		m.K.HookAt(at, &cr.injectH, int64(n), int64(chunk))
		return
	}
	// Root: reduction of this chunk complete.
	if m.Trace.Enabled() {
		m.Trace.Addf(at, trace.Proto, n, "allreduce %v chunk %d reduced at root", cr.color, chunk)
	}
	if cr.a.ReduceOnly {
		cr.a.Deliveries[n].Deliver(m.K, at, cr.spans[chunk])
		return
	}
	m.K.HookAt(at, &cr.releaseH, int64(chunk), 0)
}

// RunPost opens chunk to the broadcast-down phase. Chunks complete in order
// along each chain, but guard anyway: allow everything up to this chunk.
//
//bgplint:hot
func (s *releaseStage) RunPost(chunk, _ int64) { s.cr.down.allowChunks(int(chunk) + 1) }

// RunPost injects node's combined partial of chunk, which travels one hop
// toward the root on the reversed-direction link.
//
//bgplint:hot
func (s *hopInjectStage) RunPost(node, chunk int64) {
	cr := s.cr
	m := cr.a.M
	h := cr.hops[node]
	wire := cr.wire[chunk]
	injDone := m.Node(int(node)).DMA.Inject(m.K.Now(), wire)
	at := m.Torus.NeighborSend(injDone, int(node), h.dim(), -cr.color.Dir, cr.lane, wire)
	m.K.HookAt(at, &cr.arriveH, int64(h.to()), chunk)
}

// RunPost processes a partial's network arrival at node: DMA reception.
//
//bgplint:hot
func (s *hopArriveStage) RunPost(node, chunk int64) {
	cr := s.cr
	m := cr.a.M
	rx := m.Node(int(node)).DMA.Receive(m.K.Now(), cr.wire[chunk])
	m.K.HookAt(rx, &cr.receiveH, node, chunk)
}

// RunPost runs when node's DMA has received a partial of chunk: one more
// input stream to combine.
//
//bgplint:hot
func (s *hopReceiveStage) RunPost(node, chunk int64) {
	cr := s.cr
	cr.streamArrived(int(node), int(chunk), cr.a.M.K.Now(), cr.spans[chunk].Len)
}
