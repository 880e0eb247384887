package coll

import (
	"bgpcoll/internal/ccmi"
	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// Both allreduce algorithms are written in explicit-resume (program) style,
// and recycle their per-call state like the broadcasts (DESIGN.md §17): the
// job-wide state, with its ccmi schedule, delivery logs and chunk lists,
// comes from a per-world free list, and every rank's drivers live in
// per-world role slabs whose continuations are bound once per slot.

// allreduceColors is the color count of the torus allreduce: the reduce
// phase runs on the reversed-direction links of each color's broadcast tree,
// so only the three positive-direction colors can run concurrently (§V-C).
const allreduceColors = 3

// allreduceState is the job-wide shared state of one torus allreduce or
// reduce. It is recycled: its Go memory and its counters are kept, and
// every arm re-arms the counters in a fixed order and takes a protocol pipe
// set. The scratch's states end with the run (allreduceScratch.EndRun), so
// no handle outlives a Reset.
type allreduceState struct {
	sc    *allreduceScratch
	refs  int // ranks that have not released the state yet
	bytes int

	exec ccmi.Allreduce

	// Per node.
	contrib []int64    // [node*allreduceColors+color]: locally reduced bytes ready (exec's tally)
	scratch []data.Buf // node contribution vector (master-owned)
	result  []data.Buf // master's receive buffer (the network target)
	delv    []ccmi.Delivery
	dels    []*ccmi.Delivery // pointer view of delv
	ready   []*sim.Counter   // local ranks that registered their send buffers
	peer    []*sim.Counter   // [node*ppn+lrank]: result bytes landed (slot 0 unused)
	stage   []*sim.Counter   // [node*ppn+lrank]: staged bytes DMA-delivered to that core

	sends []data.Buf // per rank: registered send buffers

	// The payload's color partitions and chunk lists, computed once per
	// call: per-color chunks for the shared-address algorithm, whole-payload
	// chunks for the current one.
	offs, lens  [allreduceColors]int
	colorChunks [allreduceColors][]hw.Span
	chunks      []hw.Span

	// protos are the master cores as protocol processors, one pipe per
	// node, taken from sc; the last rank to finish returns them.
	protos *protoSet
}

// allreduceScratchKey names the allreduces' per-world scratch.
var allreduceScratchKey = mpi.NewScratchKey("coll.allreduce")

// allreduceScratch is what the allreduces keep on a world: for the calls of
// a run, the in-flight and released states, the reduce colors and one
// dense slab per driver role (see treeScratch for the slab rules); across
// runs, the released per-node protocol pipe sets. A set is adopted by the kernel once, when it
// is made, and re-initialized in place by every call that takes it, so a
// long-lived pooled world registers one set per allreduce in flight at once
// instead of one per call. Reconfigure drops every registered pipe
// (Kernel.ReleasePipes); the first call after it sees a new pipe epoch and
// drops the sets with them.
type allreduceScratch struct {
	states recycled[allreduceState]
	colors []geometry.Color

	finish    []allreduceFinisher // by rank: every algorithm's completion step
	shaddr    []shaddrReduceLoop  // by rank: shaddr non-protocol cores
	chainHead []arChainHead       // by node: current, last local rank
	chainMid  []arChainMid        // by rank: current, middle local ranks
	master    []arMasterLoop      // by node: current, local rank 0

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

// SteadyState implements sim.Hasher: an allreduce in flight at an iteration
// boundary refuses the capture.
func (sc *allreduceScratch) SteadyState(f *sim.FP) { sc.states.inFlight(f, "allreduce") }

// EndRun implements mpi.RunScratch: the states, slabs and colors live for
// one run, as torusScratch's do. The protocol pipe sets stay: the kernel
// has adopted them, and only Reconfigure's new pipe epoch retires them.
func (sc *allreduceScratch) EndRun() {
	*sc = allreduceScratch{free: sc.free, epoch: sc.epoch}
}

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

// arm (re)initializes a state for call seq of bytes. protoCores scales the
// protocol pipe: the current algorithm spreads network combining over the
// node's MPI progress engines, while the proposed design dedicates exactly
// one core ("a dedicated core performs allreduce protocol processing").
// Per node it clears the contribution tally and re-arms (or, on the
// state's first call, carves) the delivery counter, ready, and per local
// rank the peer and stage counters, in that order.
func (st *allreduceState) arm(r *mpi.Rank, seq int64, bytes int, protoCores float64) {
	m := r.Machine()
	k := m.K
	nodes := m.Geom.Nodes()
	ppn := r.LocalSize()
	functional := m.Cfg.Functional
	rate := m.Cfg.Params.ReduceBps
	if !m.Nodes[0].HW.Cached((2*ppn + 2) * bytes) {
		rate = m.Cfg.Params.ReduceDRAMBps
	}
	st.protos = st.sc.takeProtos(k, nodes, rate*protoCores)
	st.refs, st.bytes = m.Cfg.Ranks(), bytes

	geometry.SplitAlignedTo(st.offs[:], st.lens[:], bytes, data.Float64Len)
	for c := range st.colorChunks {
		st.colorChunks[c] = m.Cfg.Params.AppendChunks(st.colorChunks[c][:0], st.lens[c])
	}
	st.chunks = m.Cfg.Params.AppendChunks(st.chunks[:0], bytes)

	st.contrib = fit(st.contrib, nodes*allreduceColors)
	clear(st.contrib)
	st.scratch = fit(st.scratch, nodes)
	st.result = fit(st.result, nodes)
	st.delv, st.dels = fitDeliveries(st.delv, st.dels, nodes)
	st.ready = fit(st.ready, nodes)
	st.peer = fit(st.peer, nodes*ppn)
	st.stage = fit(st.stage, nodes*ppn)
	st.sends = fit(st.sends, m.Cfg.Ranks())
	clear(st.sends)
	for n := 0; n < nodes; n++ {
		st.scratch[n] = data.New(bytes, functional)
		st.result[n] = data.New(bytes, functional)
		st.delv[n].Arm(rearm(k, st.delv[n].Counter, "ar%d.del%d", int32(seq), int32(n)))
		st.ready[n] = rearm(k, st.ready[n], "ready")
		st.peer[n*ppn] = nil
		for p := 0; p < ppn; p++ {
			if p > 0 {
				st.peer[n*ppn+p] = rearm(k, st.peer[n*ppn+p], "ardone")
			}
			st.stage[n*ppn+p] = rearm(k, st.stage[n*ppn+p], "arstage")
		}
	}
}

// release drops one rank's claim on the state; the last one returns its
// protocol pipes and the state to the world scratch.
func (st *allreduceState) release() {
	st.refs--
	if st.refs > 0 {
		return
	}
	sc := st.sc
	sc.free = append(sc.free, st.protos)
	st.protos = nil
	// Buffers belong to the callers, not the free list.
	clear(st.sends)
	clear(st.scratch)
	clear(st.result)
	sc.states.put(st)
}

// startAllreduce is both algorithms' prologue: take the collective sequence
// number, acquire the shared state, register the rank's send buffer, arm
// its finish step (which installs the result into recv unless recv is
// empty), and start the network schedule on starter's rank. A reduce
// (reduceOnly) delivers reduced chunks to the starter's node only.
func startAllreduce(r *mpi.Rank, send, recv data.Buf, protoCores float64, starter int, reduceOnly bool, done func()) (*allreduceScratch, *allreduceState, func()) {
	seq := r.NextSeq()
	sc := r.World().Scratch(allreduceScratchKey, newAllreduceScratch).(*allreduceScratch)
	st := sc.states.find(seq)
	if st == nil {
		st = sc.states.take(seq)
		st.sc = sc
		st.arm(r, seq, send.Len(), protoCores)
	}
	f := slot(&sc.finish, r.Rank(), r.Size())
	if f.fn == nil {
		f.fn = f.finish
	}
	f.r, f.st, f.recv, f.done = r, st, recv, done

	st.sends[r.Rank()] = send
	st.ready[r.NodeID()].Add(1)

	if r.Rank() == starter {
		m := r.Machine()
		if sc.colors == nil {
			sc.colors = geometry.Colors(allreduceColors)
		}
		a := &st.exec
		a.M, a.Root, a.Bytes, a.Colors, a.Lane0 = m, r.Coord(), st.bytes, sc.colors, 6
		a.Contrib, a.ContribBufs, a.ResultBufs = st.contrib, st.scratch, st.result
		a.Deliveries, a.ProtoPipes, a.ReduceOnly = st.dels, st.protos.ptrs, reduceOnly
		a.Run()
	}
	return sc, st, f.fn
}

// allreduceFinisher is the completion step both algorithms end with:
// install the reduced result, release the shared state, then continue.
type allreduceFinisher struct {
	r    *mpi.Rank
	st   *allreduceState
	recv data.Buf
	done func()
	fn   func() // bound finish
}

// finish runs once per rank per call; the slot is cleared before done runs,
// which may start this rank's next collective.
//
//bgplint:hot
func (f *allreduceFinisher) finish() {
	r, st, done := f.r, f.st, f.done
	installPayload(f.recv, st.result[r.NodeID()])
	f.st, f.recv, f.done = nil, data.Buf{}, nil
	st.release()
	done()
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
	starter, takes := 0, true
	if root >= 0 {
		starter, takes = root, r.Rank() == root
	}
	if !takes {
		recv = data.Buf{}
	}
	sc, st, finish := startAllreduce(r, send, recv, 1, starter, root >= 0, done)
	bytes := st.bytes
	node := r.NodeID()
	ppn := r.LocalSize()

	if ppn == 1 {
		allreduceSMPRankThen(r, st, send, takes, finish)
		return
	}

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
		l := slot(&sc.shaddr, r.Rank(), r.Size())
		if l.mapFn == nil {
			l.mapFn, l.reducedFn, l.arriveFn = l.mapNext, l.reduced, l.arrive
			l.polledFn, l.copiedFn = l.polled, l.copied
		}
		l.st, l.r, l.p, l.node, l.hwNode = st, r, r.Proc(), node, r.Node().HW
		l.del, l.lr, l.ppn, l.bytes = del, lr, ppn, bytes
		l.cached = r.Node().HW.Cached((2*ppn + 2) * bytes)
		l.ownColor, l.drain, l.cont = color, takes, finish
		l.mapIdx, l.color, l.chunks, l.chunkIdx = 0, 0, nil, 0
		l.spanIdx, l.seen, l.lens, l.spanJ = 0, 0, nil, 0
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
	del      *ccmi.Delivery
	node     int
	lr       int
	ppn      int
	bytes    int
	cached   bool
	ownColor int
	drain    bool
	cont     func()

	mapIdx int

	color    int
	chunks   []hw.Span
	chunkIdx int

	spanIdx int
	seen    int
	lens    []int32
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
	l.chunks = l.st.colorChunks[c]
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
	foldLocal(l.st, l.r, l.node, l.st.offs[l.color]+chunk.Off, chunk.Len)
	l.st.contribute(l.node, l.color, chunk.Off+chunk.Len)
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
	l.lens = l.del.Drain(&l.spanIdx)
	l.spanJ = 0
	l.copyNext()
}

//bgplint:hot
func (l *shaddrReduceLoop) copyNext() {
	if l.spanJ == len(l.lens) {
		l.drainOuter()
		return
	}
	l.hwNode.CopyThen(l.p, int(l.lens[l.spanJ]), l.cached, l.copiedFn)
}

//bgplint:hot
func (l *shaddrReduceLoop) copied() {
	l.seen += int(l.lens[l.spanJ])
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
	sc, st, finish := startAllreduce(r, send, recv, 2, 0, false, done)
	m := r.Machine()
	node := r.NodeID()
	ppn := r.LocalSize()

	if ppn == 1 {
		allreduceSMPRankThen(r, st, send, true, finish)
		return
	}

	p := r.Proc()
	nodes := m.Geom.Nodes()

	// Local reduce: a pipelined chain through the cores. Rank ppn-1's data
	// is DMA-copied into rank ppn-2's staging, that core adds its own data
	// and the DMA forwards the partial, until the accumulated partial lands
	// at the master. Every byte crosses the DMA ppn-1 times — the redundant
	// copies the paper calls out — and the final accumulation runs on the
	// master core, which is simultaneously the network protocol core.
	lr := r.LocalRank()
	at := node*ppn + lr
	if lr == ppn-1 {
		// Chain head: ship own chunks to the next core.
		l := slot(&sc.chainHead, node, nodes)
		if l.stepFn == nil {
			l.stepFn = l.step
		}
		l.r, l.k, l.p, l.stage, l.peer = r, m.K, p, st.stage[at-1], st.peer[at]
		l.chunks, l.bytes, l.j, l.cont = st.chunks, st.bytes, 0, finish
		p.WaitGEThen(st.ready[node], int64(ppn), l.stepFn)
	} else if lr > 0 {
		// Chain middle: combine the inbound partial with own data and
		// forward.
		l := slot(&sc.chainMid, r.Rank(), r.Size())
		if l.reduceFn == nil {
			l.reduceFn, l.forwardFn = l.reduce, l.forward
		}
		l.r, l.k, l.p, l.hwNode = r, m.K, p, r.Node().HW
		l.stageIn, l.stageOut, l.peer = st.stage[at], st.stage[at-1], st.peer[at]
		l.chunks, l.bytes, l.j, l.got = st.chunks, st.bytes, 0, 0
		l.cached, l.cont = r.Node().HW.Cached((2*ppn+2)*st.bytes), finish
		l.step()
	} else {
		// Master: final accumulation on the protocol core, then the DMA
		// distributes arriving results to the peers.
		l := slot(&sc.master, node, nodes)
		if l.reserveFn == nil {
			l.reserveFn, l.foldedFn, l.arriveFn = l.reserve, l.folded, l.arrive
		}
		l.st, l.r, l.k, l.p, l.del = st, r, m.K, p, st.dels[node]
		l.node, l.ppn, l.bytes, l.chunks = node, ppn, st.bytes, st.chunks
		l.j, l.got, l.acc, l.spanIdx, l.seen, l.cont = 0, 0, 0, 0, 0, finish
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
	l.p.WaitGEThen(l.st.stage[l.node*l.ppn], l.got, l.reserveFn)
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
	feedContribAbsolute(l.st, l.node, l.acc)
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

// arrive DMA-puts every newly delivered span to each peer. A peer waits
// only for the whole result, so its counter gets one scheduled add, at the
// last span's put, carrying every byte (see masterPump.enterRecv).
//
//bgplint:hot
func (l *arMasterLoop) arrive() {
	engine := l.r.Node().DMA
	for _, n := range l.del.Drain(&l.spanIdx) {
		l.seen += int(n)
		for pi := 1; pi < l.ppn; pi++ {
			putDone := engine.LocalCopy(l.r.Now(), int(n))
			if l.seen == l.bytes {
				l.k.AddAt(putDone, l.st.peer[l.node*l.ppn+pi], int64(l.bytes))
			}
		}
	}
	l.distOuter()
}

// feedContribAbsolute translates linear local-reduce progress (bytes from
// offset zero) into the per-color contribution tallies.
func feedContribAbsolute(st *allreduceState, node, done int) {
	for c := 0; c < allreduceColors; c++ {
		st.contribute(node, c, min(max(done-st.offs[c], 0), st.lens[c]))
	}
}

// contribute raises node's tally for color c to have bytes of the color's
// partition (a tally never falls) and hands the growth to the schedule.
//
//bgplint:hot
func (st *allreduceState) contribute(node, c, have int) {
	st.contrib[node*allreduceColors+c] = int64(have)
	st.exec.Contributed(node, c)
}

// allreduceSMPRankThen is the SMP-mode path shared by every algorithm: one
// rank per node contributes its buffer directly and, if it takes the
// result, waits for it. finish installs the payload and releases the shared
// state.
func allreduceSMPRankThen(r *mpi.Rank, st *allreduceState, send data.Buf, takes bool, finish func()) {
	node := r.NodeID()
	// The node contribution is the send buffer itself; install it and
	// declare every color ready.
	if st.scratch[node].IsReal() && send.IsReal() && st.scratch[node].Len() == send.Len() {
		data.Copy(st.scratch[node], send)
	}
	feedContribAbsolute(st, node, st.bytes)
	if !takes {
		finish()
		return
	}
	r.Proc().WaitGEThen(st.dels[node].Counter, int64(st.bytes), finish)
}
