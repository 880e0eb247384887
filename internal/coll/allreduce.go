package coll

import (
	"fmt"

	"bgpcoll/internal/ccmi"
	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// Both allreduce algorithms are written in explicit-resume (program) style:
// each chunk loop is a small state machine whose continuations are method
// values bound once per rank per operation (see the note in bcast_tree.go),
// so program-mode ranks run them without goroutines or per-chunk closure
// garbage while goroutine-backed ranks execute the identical bodies on
// their own stacks.

// allreduceColors is the color count of the torus allreduce: the reduce
// phase runs on the reversed-direction links of each color's broadcast tree,
// so only the three positive-direction colors can run concurrently (§V-C).
const allreduceColors = 3

// allreduceState is the job-wide shared state of one torus allreduce.
type allreduceState struct {
	exec *ccmi.Allreduce

	// Per node.
	contrib [][]*sim.Counter // [node][color]: locally reduced bytes ready
	scratch []data.Buf       // node contribution vector (master-owned)
	result  []data.Buf       // master's receive buffer (the network target)
	dels    []*ccmi.Delivery
	ready   []*sim.Counter // local ranks that registered their send buffers
	peer    [][]*sim.Counter
	stage   [][]*sim.Counter // [node][lrank]: staged bytes DMA-delivered to that core

	sends []data.Buf // per rank: registered send buffers

	// protos are the master cores as protocol processors, one pipe per
	// node, taken from sc; the last of refs ranks to finish returns them.
	sc     *allreduceScratch
	protos *protoSet
	refs   int
}

const allreduceKind = "allreduce"

// allreduceScratchKey names the allreduces' per-world scratch.
var allreduceScratchKey = mpi.NewScratchKey("coll.allreduce")

// allreduceScratch is what the allreduces keep on a world across calls: the
// released per-node protocol pipe sets. A set is adopted by the kernel once,
// when it is made, and re-initialized in place by every call that takes it,
// so a long-lived pooled world registers one set per allreduce in flight at
// once instead of one per call. Reconfigure drops every registered pipe
// (Kernel.ReleasePipes); the first call after it sees a new pipe epoch and
// drops the sets with them.
type allreduceScratch struct {
	free  []*protoSet
	epoch uint32 // the kernel pipe epoch the free sets were adopted under
}

// protoSet is one allreduce's protocol pipes, one per node, with the
// pointer view ccmi.Allreduce takes.
type protoSet struct {
	pipes []sim.Pipe
	ptrs  []*sim.Pipe
}

func newAllreduceScratch() any { return &allreduceScratch{} }

// takeProtos returns a protocol pipe set for this call, every pipe re-
// initialized at rate: idle, statistics zeroed, exactly as NewPipe leaves a
// fresh one, so virtual times cannot tell a recycled set from a new one.
// Names are flyweights ("ar.proto[n]") rendered only on demand.
func (sc *allreduceScratch) takeProtos(k *sim.Kernel, nodes int, rate float64) *protoSet {
	if e := k.PipeEpoch(); e != sc.epoch {
		clear(sc.free)
		sc.free, sc.epoch = sc.free[:0], e
	}
	var ps *protoSet
	fresh := len(sc.free) == 0
	if fresh {
		ps = &protoSet{pipes: make([]sim.Pipe, nodes), ptrs: make([]*sim.Pipe, nodes)}
	} else {
		last := len(sc.free) - 1
		ps = sc.free[last]
		sc.free[last] = nil
		sc.free = sc.free[:last]
	}
	for n := range ps.pipes {
		p := &ps.pipes[n]
		k.InitPipe(p, "ar.proto", int32(n), rate, 0)
		if fresh {
			ps.ptrs[n] = p
			k.AdoptPipe(p)
		}
	}
	return ps
}

// finish drops one rank's claim on the state; the last one returns its
// protocol pipes to the world scratch.
func (st *allreduceState) finish() {
	st.refs--
	if st.refs == 0 {
		st.sc.free = append(st.sc.free, st.protos)
		st.protos = nil
	}
}

// getAllreduceState builds the shared state. protoCores scales the protocol
// pipe: the current algorithm spreads network combining over the node's MPI
// progress engines, while the proposed design dedicates exactly one core
// ("a dedicated core performs allreduce protocol processing").
func getAllreduceState(r *mpi.Rank, seq int64, bytes int, protoCores float64) *allreduceState {
	return r.WorldShared(seq, allreduceKind, func() any {
		return newAllreduceShared(r, seq, bytes, protoCores)
	}).(*allreduceState)
}

// newAllreduceShared allocates the per-node counters, buffers, deliveries
// and protocol pipes shared by the allreduce-family collectives.
func newAllreduceShared(r *mpi.Rank, seq int64, bytes int, protoCores float64) *allreduceState {
	{
		m := r.Machine()
		nodes := m.Geom.Nodes()
		ppn := r.LocalSize()
		functional := m.Cfg.Functional
		cached := m.Nodes[0].HW.Cached((2*ppn + 2) * bytes)
		rate := m.Cfg.Params.ReduceBps
		if !cached {
			rate = m.Cfg.Params.ReduceDRAMBps
		}
		rate *= protoCores
		sc := r.World().Scratch(allreduceScratchKey, newAllreduceScratch).(*allreduceScratch)
		protos := sc.takeProtos(m.K, nodes, rate)
		st := &allreduceState{
			contrib: make([][]*sim.Counter, nodes),
			scratch: make([]data.Buf, nodes),
			result:  make([]data.Buf, nodes),
			dels:    make([]*ccmi.Delivery, nodes),
			ready:   make([]*sim.Counter, nodes),
			peer:    make([][]*sim.Counter, nodes),
			stage:   make([][]*sim.Counter, nodes),
			sends:   make([]data.Buf, m.Cfg.Ranks()),
			sc:      sc,
			protos:  protos,
			refs:    m.Cfg.Ranks(),
		}
		for n := 0; n < nodes; n++ {
			st.contrib[n] = make([]*sim.Counter, allreduceColors)
			for c := range st.contrib[n] {
				st.contrib[n][c] = m.K.NewCounter(fmt.Sprintf("ar%d.contrib%d.%d", seq, n, c))
			}
			st.scratch[n] = data.New(bytes, functional)
			st.result[n] = data.New(bytes, functional)
			st.dels[n] = ccmi.NewDelivery(m.K, fmt.Sprintf("ar%d.del%d", seq, n))
			st.ready[n] = m.K.NewCounter("ready")
			st.peer[n] = make([]*sim.Counter, ppn)
			st.stage[n] = make([]*sim.Counter, ppn)
			for p := 0; p < ppn; p++ {
				if p > 0 {
					st.peer[n][p] = m.K.NewCounter("ardone")
				}
				st.stage[n][p] = m.K.NewCounter("arstage")
			}
		}
		return st
	}
}

// startAllreduceNetwork launches the network schedule rooted at r's node.
// Exactly one rank starts it: global rank 0 for an allreduce, the root for a
// reduce (reduceOnly), whose reduced chunks are delivered to its node only.
func startAllreduceNetwork(r *mpi.Rank, st *allreduceState, bytes int, reduceOnly bool) {
	m := r.Machine()
	st.exec = &ccmi.Allreduce{
		M:           m,
		Root:        r.Coord(),
		Bytes:       bytes,
		Colors:      geometry.Colors(allreduceColors),
		Lane0:       6,
		Contrib:     st.contrib,
		ContribBufs: st.scratch,
		ResultBufs:  st.result,
		Deliveries:  st.dels,
		ProtoPipes:  st.protos.ptrs,
		ReduceOnly:  reduceOnly,
	}
	st.exec.Run()
}

// allreduceFinish builds the completion continuation both algorithms end
// with: install the reduced result, release the shared state (the position
// the blocking form's defer ran at), then continue.
func allreduceFinish(r *mpi.Rank, st *allreduceState, seq int64, recv data.Buf, done func()) func() {
	return func() {
		installPayload(recv, st.result[r.NodeID()])
		r.ReleaseWorldShared(seq, allreduceKind)
		st.finish()
		done()
	}
}

// allreduceShaddr is the proposed algorithm (paper §V-C): core 0 runs the
// network protocol; cores 1..3 each locally reduce one color partition of
// the four application buffers through process windows, feeding the network
// pipeline chunk by chunk, and later copy the full result into their own
// buffers.
func allreduceShaddr(r *mpi.Rank, send, recv data.Buf, done func()) {
	reduceShaddr(r, send, recv, -1, done)
}

// reduceShaddr is the shared-address allreduce for root < 0. For root >= 0
// it implements MPI_Reduce (the paper's future work, §VII) with the same
// state machine and a reduce-only ending: the root's rank starts the
// schedule without the broadcast-down phase, and only the root waits for
// and drains the result.
func reduceShaddr(r *mpi.Rank, send, recv data.Buf, root int, done func()) {
	seq := r.NextSeq()
	bytes := send.Len()
	st := getAllreduceState(r, seq, bytes, 1)
	m := r.Machine()
	node := r.NodeID()
	ppn := r.LocalSize()
	cached := r.Node().HW.Cached((2*ppn + 2) * bytes)
	starter, takes := 0, true
	if root >= 0 {
		starter, takes = root, r.Rank() == root
	}
	if !takes {
		recv = data.Buf{}
	}
	finish := allreduceFinish(r, st, seq, recv, done)

	st.sends[r.Rank()] = send
	st.ready[node].Add(1)

	if r.Rank() == starter {
		startAllreduceNetwork(r, st, bytes, root >= 0)
	}

	if ppn == 1 {
		allreduceSMPRankThen(r, st, bytes, send, takes, finish)
		return
	}

	offs, lens := geometry.SplitAligned(bytes, allreduceColors, data.Float64Len)
	del := st.dels[node]

	switch lr := r.LocalRank(); lr {
	case 0:
		// Protocol core: the ccmi schedule charges its combine work to
		// st.protos; the rank just owns the result buffer and waits.
		if !takes {
			finish()
			return
		}
		r.Proc().WaitGEThen(del.Counter, int64(bytes), finish)

	default:
		color := lr - 1
		if color >= allreduceColors {
			color = allreduceColors - 1 // quad mode has exactly 3 peers
		}
		l := &shaddrReduceLoop{
			st: st, r: r, p: r.Proc(), node: node, hwNode: r.Node().HW,
			params: m.Cfg.Params, del: del, lr: lr, ppn: ppn, bytes: bytes,
			cached: cached, offs: offs, lens: lens, ownColor: color,
			drain: takes, cont: finish,
		}
		l.mapFn = l.mapNext
		l.reducedFn = l.reduced
		l.arriveFn = l.arrive
		l.polledFn = l.polled
		l.copiedFn = l.copied
		// Wait for all local ranks to enter (their buffers must be
		// readable), then map the three peer send buffers.
		l.p.WaitGEThen(st.ready[node], int64(ppn), l.mapFn)
	}
}

// shaddrReduceLoop drives one non-protocol core of the shaddr allreduce
// (paper §V-C) through its three phases: map the peer send buffers through
// process windows, pipeline the owned color partition(s) chunk by chunk into
// the network schedule, then — if it takes the result (drain) — copy the
// full reduced result out of the master's receive buffer as it arrives.
type shaddrReduceLoop struct {
	st       *allreduceState
	r        *mpi.Rank
	p        *sim.Proc
	hwNode   *hw.Node
	params   hw.Params
	del      *ccmi.Delivery
	node     int
	lr       int
	ppn      int
	bytes    int
	cached   bool
	offs     []int
	lens     []int
	ownColor int
	drain    bool
	cont     func()

	mapIdx int

	color    int
	chunks   []hw.Span
	chunkIdx int

	spanIdx int
	seen    int
	spans   []hw.Span
	spanJ   int

	mapFn     func()
	reducedFn func()
	arriveFn  func()
	polledFn  func()
	copiedFn  func()
}

// mapNext maps the next peer's registered send buffer; once all are mapped,
// the local reduction of the owned color starts.
//
//bgplint:hot
func (l *shaddrReduceLoop) mapNext() {
	for l.mapIdx == l.lr {
		l.mapIdx++
	}
	if l.mapIdx >= l.ppn {
		l.startColor(l.ownColor)
		return
	}
	pi := l.mapIdx
	l.mapIdx++
	l.r.CNK().MapThen(l.p, windowKey(pi, l.st.sends[l.r.RankOf(l.node, pi)]), l.bytes, l.mapFn)
}

// startColor begins pipelining one color partition chunk by chunk into the
// network schedule: sum the four application buffers (three accumulation
// passes).
//
//bgplint:hot
func (l *shaddrReduceLoop) startColor(c int) {
	l.color = c
	l.chunks = l.params.Chunks(l.lens[c])
	l.chunkIdx = 0
	l.reduceStep()
}

//bgplint:hot
func (l *shaddrReduceLoop) reduceStep() {
	if l.chunkIdx == len(l.chunks) {
		l.colorDone()
		return
	}
	l.hwNode.ReduceThen(l.p, (l.ppn-1)*l.chunks[l.chunkIdx].Len, l.cached, l.reducedFn)
}

//bgplint:hot
func (l *shaddrReduceLoop) reduced() {
	chunk := l.chunks[l.chunkIdx]
	foldLocal(l.st, l.r, l.node, l.offs[l.color]+chunk.Off, chunk.Len)
	l.st.contrib[l.node][l.color].Add(int64(chunk.Len))
	l.chunkIdx++
	l.reduceStep()
}

// colorDone advances to the next color the last peer must feed: colors
// without an owning core (fewer peers than colors cannot happen in quad
// mode; guard for dual). Everyone else goes straight to the drain phase.
//
//bgplint:hot
func (l *shaddrReduceLoop) colorDone() {
	if l.lr != l.ppn-1 {
		l.drainOuter()
		return
	}
	c := l.color + 1
	if c < l.ppn-1 {
		c = l.ppn - 1
	}
	if c >= allreduceColors {
		l.drainOuter()
		return
	}
	l.startColor(c)
}

// drainOuter copies the full reduced result from the master's receive
// buffer into this rank's buffer as it arrives.
//
//bgplint:hot
func (l *shaddrReduceLoop) drainOuter() {
	if !l.drain || l.seen >= l.bytes {
		l.cont()
		return
	}
	l.p.WaitGEThen(l.del.Counter, int64(l.seen)+1, l.arriveFn)
}

//bgplint:hot
func (l *shaddrReduceLoop) arrive() {
	l.hwNode.PollThen(l.p, l.polledFn)
}

//bgplint:hot
func (l *shaddrReduceLoop) polled() {
	l.spans = l.del.Drain(&l.spanIdx)
	l.spanJ = 0
	l.copyNext()
}

//bgplint:hot
func (l *shaddrReduceLoop) copyNext() {
	if l.spanJ == len(l.spans) {
		l.drainOuter()
		return
	}
	l.hwNode.CopyThen(l.p, l.spans[l.spanJ].Len, l.cached, l.copiedFn)
}

//bgplint:hot
func (l *shaddrReduceLoop) copied() {
	l.seen += l.spans[l.spanJ].Len
	l.spanJ++
	l.copyNext()
}

// foldLocal installs the functional node-local sum for one byte range of the
// scratch buffer: scratch[range] = sum over local ranks of send[range].
func foldLocal(st *allreduceState, r *mpi.Rank, node, off, n int) {
	scratch := st.scratch[node]
	if scratch.Len() == 0 || n == 0 || !scratch.IsReal() {
		return
	}
	first := true
	for p := 0; p < r.LocalSize(); p++ {
		send := st.sends[r.RankOf(node, p)]
		if send.Len() == 0 {
			continue
		}
		if first {
			data.Copy(scratch.Slice(off, n), send.Slice(off, n))
			first = false
		} else {
			data.AddFloats(scratch.Slice(off, n), send.Slice(off, n))
		}
	}
}

// allreduceCurrent is the production algorithm (paper §V-C): the intra-node
// reduce and broadcast phases move every buffer through the DMA, and the
// master core performs both the local reduction and the network protocol —
// the two contention points the shared-address design removes.
func allreduceCurrent(r *mpi.Rank, send, recv data.Buf, done func()) {
	seq := r.NextSeq()
	bytes := send.Len()
	st := getAllreduceState(r, seq, bytes, 2)
	m := r.Machine()
	node := r.NodeID()
	ppn := r.LocalSize()
	finish := allreduceFinish(r, st, seq, recv, done)

	st.sends[r.Rank()] = send
	st.ready[node].Add(1)

	if r.Rank() == 0 {
		startAllreduceNetwork(r, st, bytes, false)
	}

	if ppn == 1 {
		allreduceSMPRankThen(r, st, bytes, send, true, finish)
		return
	}

	offs, lens := geometry.SplitAligned(bytes, allreduceColors, data.Float64Len)
	del := st.dels[node]
	chunks := m.Cfg.Params.Chunks(bytes)
	cached := r.Node().HW.Cached((2*ppn + 2) * bytes)
	p := r.Proc()

	// Local reduce: a pipelined chain through the cores. Rank ppn-1's data
	// is DMA-copied into rank ppn-2's staging, that core adds its own data
	// and the DMA forwards the partial, until the accumulated partial lands
	// at the master. Every byte crosses the DMA ppn-1 times — the redundant
	// copies the paper calls out — and the final accumulation runs on the
	// master core, which is simultaneously the network protocol core.
	lr := r.LocalRank()
	if lr == ppn-1 {
		// Chain head: ship own chunks to the next core.
		l := &arChainHead{
			r: r, k: m.K, p: p, stage: st.stage[node][lr-1],
			peer: st.peer[node][lr], chunks: chunks, bytes: bytes, cont: finish,
		}
		l.stepFn = l.step
		p.WaitGEThen(st.ready[node], int64(ppn), l.stepFn)
	} else if lr > 0 {
		// Chain middle: combine the inbound partial with own data and
		// forward.
		l := &arChainMid{
			r: r, k: m.K, p: p, hwNode: r.Node().HW,
			stageIn: st.stage[node][lr], stageOut: st.stage[node][lr-1],
			peer: st.peer[node][lr], chunks: chunks, bytes: bytes,
			cached: cached, cont: finish,
		}
		l.reduceFn = l.reduce
		l.forwardFn = l.forward
		l.step()
	} else {
		// Master: final accumulation on the protocol core, then the DMA
		// distributes arriving results to the peers.
		l := &arMasterLoop{
			st: st, r: r, k: m.K, p: p, del: del, node: node, ppn: ppn,
			bytes: bytes, offs: offs, lens: lens, chunks: chunks, cont: finish,
		}
		l.reserveFn = l.reserve
		l.foldedFn = l.folded
		l.arriveFn = l.arrive
		l.step()
	}
}

// arChainHead is the head of the intra-node reduce chain: DMA-copy each own
// chunk into the next core's staging area, then wait for the broadcast-back.
type arChainHead struct {
	r      *mpi.Rank
	k      *sim.Kernel
	p      *sim.Proc
	stage  *sim.Counter
	peer   *sim.Counter
	chunks []hw.Span
	bytes  int
	j      int
	cont   func()
	stepFn func()
}

//bgplint:hot
func (l *arChainHead) step() {
	if l.j == len(l.chunks) {
		l.p.WaitGEThen(l.peer, int64(l.bytes), l.cont)
		return
	}
	chunk := l.chunks[l.j]
	putDone := l.r.Node().DMA.LocalCopy(l.r.Now(), chunk.Len)
	l.k.AddAt(putDone, l.stage, int64(chunk.Len))
	l.j++
	l.p.SleepUntilThen(putDone, l.stepFn)
}

// arChainMid is a middle link of the reduce chain: wait for the inbound
// partial, combine it with own data, and DMA-forward the new partial.
type arChainMid struct {
	r         *mpi.Rank
	k         *sim.Kernel
	p         *sim.Proc
	hwNode    *hw.Node
	stageIn   *sim.Counter
	stageOut  *sim.Counter
	peer      *sim.Counter
	chunks    []hw.Span
	bytes     int
	cached    bool
	j         int
	got       int64
	cont      func()
	reduceFn  func()
	forwardFn func()
}

//bgplint:hot
func (l *arChainMid) step() {
	if l.j == len(l.chunks) {
		l.p.WaitGEThen(l.peer, int64(l.bytes), l.cont)
		return
	}
	l.got += int64(l.chunks[l.j].Len)
	l.p.WaitGEThen(l.stageIn, l.got, l.reduceFn)
}

//bgplint:hot
func (l *arChainMid) reduce() {
	l.hwNode.ReduceThen(l.p, l.chunks[l.j].Len, l.cached, l.forwardFn)
}

//bgplint:hot
func (l *arChainMid) forward() {
	chunk := l.chunks[l.j]
	putDone := l.r.Node().DMA.LocalCopy(l.r.Now(), chunk.Len)
	l.k.AddAt(putDone, l.stageOut, int64(chunk.Len))
	l.j++
	l.step()
}

// arMasterLoop is the master's side of the current algorithm: the final
// accumulation of each staged chunk runs on the protocol core's pipe, and
// once the chain completes the DMA distributes arriving network results to
// the peers.
type arMasterLoop struct {
	st        *allreduceState
	r         *mpi.Rank
	k         *sim.Kernel
	p         *sim.Proc
	del       *ccmi.Delivery
	node      int
	ppn       int
	bytes     int
	offs      []int
	lens      []int
	chunks    []hw.Span
	j         int
	got       int64
	acc       int
	spanIdx   int
	seen      int
	cont      func()
	reserveFn func()
	foldedFn  func()
	arriveFn  func()
}

//bgplint:hot
func (l *arMasterLoop) step() {
	if l.j == len(l.chunks) {
		l.distOuter()
		return
	}
	l.got += int64(l.chunks[l.j].Len)
	l.p.WaitGEThen(l.st.stage[l.node][0], l.got, l.reserveFn)
}

//bgplint:hot
func (l *arMasterLoop) reserve() {
	reduceDone := l.st.protos.ptrs[l.node].Reserve(l.chunks[l.j].Len)
	l.p.SleepUntilThen(reduceDone, l.foldedFn)
}

//bgplint:hot
func (l *arMasterLoop) folded() {
	chunk := l.chunks[l.j]
	foldLocal(l.st, l.r, l.node, chunk.Off, chunk.Len)
	l.acc += chunk.Len
	feedContribAbsolute(l.st, l.node, l.acc, l.offs, l.lens)
	l.j++
	l.step()
}

//bgplint:hot
func (l *arMasterLoop) distOuter() {
	if l.seen >= l.bytes {
		l.cont()
		return
	}
	l.p.WaitGEThen(l.del.Counter, int64(l.seen)+1, l.arriveFn)
}

//bgplint:hot
func (l *arMasterLoop) arrive() {
	for _, span := range l.del.Drain(&l.spanIdx) {
		for pi := 1; pi < l.ppn; pi++ {
			putDone := l.r.Node().DMA.LocalCopy(l.r.Now(), span.Len)
			l.k.AddAt(putDone, l.st.peer[l.node][pi], int64(span.Len))
		}
		l.seen += span.Len
	}
	l.distOuter()
}

// feedContribAbsolute translates linear local-reduce progress (bytes from
// offset zero) into the per-color contribution counters.
func feedContribAbsolute(st *allreduceState, node, done int, offs, lens []int) {
	for c := 0; c < allreduceColors; c++ {
		have := done - offs[c]
		if have < 0 {
			have = 0
		}
		if have > lens[c] {
			have = lens[c]
		}
		if delta := int64(have) - st.contrib[node][c].Value(); delta > 0 {
			st.contrib[node][c].Add(delta)
		}
	}
}

// allreduceSMPRankThen is the SMP-mode path shared by every algorithm: one
// rank per node contributes its buffer directly and, if it takes the
// result, waits for it. finish installs the payload and releases the shared
// state.
func allreduceSMPRankThen(r *mpi.Rank, st *allreduceState, bytes int, send data.Buf, takes bool, finish func()) {
	node := r.NodeID()
	_, lens := geometry.SplitAligned(bytes, allreduceColors, data.Float64Len)
	// The node contribution is the send buffer itself; install it and
	// declare every color ready.
	if st.scratch[node].IsReal() && send.IsReal() && st.scratch[node].Len() == send.Len() {
		data.Copy(st.scratch[node], send)
	}
	for c := 0; c < allreduceColors; c++ {
		st.contrib[node][c].Add(int64(lens[c]))
	}
	if !takes {
		finish()
		return
	}
	r.Proc().WaitGEThen(st.dels[node].Counter, int64(bytes), finish)
}
