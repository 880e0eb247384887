package coll

import (
	"bgpcoll/internal/cnk"
	"bgpcoll/internal/data"
	"bgpcoll/internal/dma"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/tree"
)

// The collective-network broadcasts below are written in explicit-resume
// (program) style: every blocking step is a *Then operation, so a rank
// running them needs no goroutine. The same bodies ARE the blocking
// algorithms — on a goroutine-backed rank each *Then operation parks the
// goroutine and then runs its continuation on the rank's stack — so there
// is exactly one transcription of each protocol (see sim/program.go and
// DESIGN.md §11).
//
// They are also allocation-free in steady use (DESIGN.md §17). The per-call
// shared state is recycled through a per-world free list and every rank's
// drivers — the chunk loops, the master's reception step, the finish step —
// live in per-world role slabs whose continuations are method values bound
// once per slot. The registration sequence (which *Then runs, in what order,
// with what plan contents) is the same one the per-call closures produced,
// so virtual times are bit-for-bit unchanged.

// injectWindow bounds how many chunks an injecting core may run ahead of
// delivery, modeling the collective network's limited buffering.
const injectWindow = 4

// treeBcastState is the job-wide shared state of one collective-network
// broadcast: the per-chunk combine operations plus the per-node intra-node
// counters its algorithm reads (treeCounters).
//
// A state is recycled: once every rank has released it, it joins its
// world's free list and the next broadcast re-arms it. Its plain Go arrays
// keep their capacity, and its counters (the tree ops' delivery counters
// among them) are re-armed in place, so a run's arena holds one call's
// counters, not every call's. The scratch outlives runs, so it drops every
// counter handle at the end of each (treeScratch.EndRun) and a state's first
// call of a run carves afresh.
type treeBcastState struct {
	sc   *treeScratch // owning world scratch
	seq  int64
	root int
	refs int // ranks that have not released the state yet
	ppn  int

	src   data.Buf
	spans []hw.Span
	touch []sim.Time // per span: the core's packet-touch time, either way
	ops   []tree.Op  // per-chunk combines

	sw    []*sim.Counter // per node: bytes received by the reception core
	fill  []*sim.Counter // per node: bytes copied into the injector's buffer
	peer  []*sim.Counter // per node, per local rank (node-major; slot 0 unused)
	rxBuf []data.Buf     // per node: reception rank's buffer (window keys)
	r0Buf []data.Buf     // per node: injector rank's buffer (window keys)
}

// treeCounters selects the per-node counters a tree broadcast algorithm
// reads; arm carves only those, and leaves the other slices empty.
type treeCounters uint8

const (
	needSW    treeCounters = 1 << iota // sw: shmem and shaddr
	needFill                           // fill: shaddr
	needPeers                          // peer: the two DMA algorithms
)

// fit returns s resized to n elements, reusing its backing array when it is
// large enough. Callers overwrite every element they read.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setSpans chunks a total-byte payload and tabulates each chunk's
// packet-touch time once, instead of once per chunk per rank.
func (st *treeBcastState) setSpans(r *mpi.Rank, total int) {
	m := r.Machine()
	st.spans = m.Cfg.Params.AppendChunks(st.spans[:0], total)
	st.touch = fit(st.touch, len(st.spans))
	for i, s := range st.spans {
		st.touch[i] = m.Tree.TouchTime(s.Len)
	}
}

// arm (re)initializes a state for broadcast seq: every field is overwritten,
// and the ops and the counters need selects are re-armed, or carved on the
// state's first call of the run, in a fixed order (ops by chunk, then per
// node sw, fill and the peers), so names and arena slots match a fresh
// world's.
func (st *treeBcastState) arm(r *mpi.Rank, seq int64, root, total int, need treeCounters) {
	m := r.Machine()
	k := m.K
	nodes := m.Geom.Nodes()
	ppn := r.LocalSize()
	st.seq, st.root, st.refs, st.ppn = seq, root, r.Size(), ppn
	st.src = data.Buf{}
	st.setSpans(r, total)
	st.ops = fit(st.ops, len(st.spans))
	for i, s := range st.spans {
		m.Tree.InitOp(&st.ops[i], s.Len)
	}
	st.sw, st.fill, st.peer = st.sw[:0], st.fill[:0], st.peer[:0]
	if need&needSW != 0 {
		st.sw = fit(st.sw, nodes)
	}
	if need&needFill != 0 {
		st.fill = fit(st.fill, nodes)
	}
	if need&needPeers != 0 {
		st.peer = fit(st.peer, nodes*ppn)
	}
	st.rxBuf = fit(st.rxBuf, nodes)
	st.r0Buf = fit(st.r0Buf, nodes)
	clear(st.rxBuf)
	clear(st.r0Buf)
	for n := 0; n < nodes; n++ {
		if need&needSW != 0 {
			st.sw[n] = rearm(k, st.sw[n], "treebc%d.sw%d", int32(seq), int32(n))
		}
		if need&needFill != 0 {
			st.fill[n] = rearm(k, st.fill[n], "fill")
		}
		if need&needPeers != 0 {
			for p := 1; p < ppn; p++ {
				st.peer[n*ppn+p] = rearm(k, st.peer[n*ppn+p], "peer")
			}
		}
	}
}

// acquireTreeBcast returns the shared state of broadcast seq, arming it on
// the first rank to arrive: from the world scratch's in-flight list or free
// list (see recycled).
func acquireTreeBcast(r *mpi.Rank, sc *treeScratch, seq int64, root, total int, need treeCounters) *treeBcastState {
	st := sc.states.find(seq)
	if st == nil {
		st = sc.states.take(seq)
		st.sc = sc
		st.arm(r, seq, root, total, need)
	}
	return st
}

// release drops r's reference (the position the blocking form's defer ran
// at). The last release returns the state to the free list.
func (st *treeBcastState) release() {
	st.refs--
	if st.refs > 0 {
		return
	}
	st.src = data.Buf{} // the payload belongs to the caller, not the free list
	st.sc.states.put(st)
}

// dropCounters forgets every counter handle the state holds, in the
// capacity past each slice's length too, so its next arm carves afresh.
func (st *treeBcastState) dropCounters() {
	clear(st.ops[:cap(st.ops)])
	clear(st.sw[:cap(st.sw)])
	clear(st.fill[:cap(st.fill)])
	clear(st.peer[:cap(st.peer)])
}

// peersAt returns node n's per-local-rank peer counters (slot 0 unused).
func (st *treeBcastState) peersAt(n int) []*sim.Counter {
	return st.peer[n*st.ppn : (n+1)*st.ppn]
}

// treeScratchKey names the tree broadcasts' per-world scratch.
var treeScratchKey = mpi.NewScratchKey("coll.tree")

// treeScratch is what the tree broadcasts keep on a world across calls: the in-flight and released broadcast states, and one dense
// slab per driver role. A role slab is indexed by node when each node has
// one such driver and by rank otherwise, and only the roles an algorithm
// uses are ever grown, so a 2^20-rank shaddr sweep pays for its four roles
// and nothing else. Every slot is driven by one fixed rank (or that rank's
// helper thread), whose broadcasts run one after another, so a slot is
// never re-armed while it still runs. Slabs only grow, like the world's rank
// slab: a pooled world moving between partitions keeps its bound slots, and
// a slab is replaced only by the first call of a run on a larger partition,
// when none of its slots is running.
type treeScratch struct {
	states recycled[treeBcastState]

	finish    []treeFinisher   // by rank: every algorithm's completion step
	pump      []masterPump     // by node: shmem and DMA masters
	shmemPeer []peerCopyLoop   // by rank: shmem peers
	dmaPeer   []dmaPeerLoop    // by rank: DMA FIFO peers
	smp       []smpRank        // by node: SMP ranks and their helper threads
	injector  []shaddrInjector // by node: shaddr local rank 0
	receiver  []recvLoop       // by node: shaddr local rank 1, quad mode
	dualRecv  []dualRecvLoop   // by node: shaddr local rank 1, dual mode
	copier    []shaddrCopyLoop // by node: shaddr local rank 2
	copyPeer  []shaddrPeer     // by node: shaddr local rank 3
}

func newTreeScratch() any { return &treeScratch{} }

// SteadyState implements sim.Hasher for the world fingerprint: a broadcast
// in flight at an iteration boundary refuses the capture. Idle capacity
// hashes nothing.
func (sc *treeScratch) SteadyState(f *sim.FP) { sc.states.inFlight(f, "tree broadcast") }

// EndRun implements mpi.RunScratch. The scratch keeps its Go memory across
// runs — states, role slabs, bound continuations — but drops every counter
// handle: after the Reset the arena re-carves those slots for whoever asks
// first, stamped with the new epoch, so a kept handle could alias another
// owner's counter instead of panicking.
func (sc *treeScratch) EndRun() {
	for _, st := range sc.states.live {
		st.dropCounters()
	}
	for _, st := range sc.states.free {
		st.dropCounters()
	}
	for i := range sc.smp {
		sc.smp[i].helperDone = nil
	}
}

// treeScratchOf returns r's world's tree scratch.
func treeScratchOf(r *mpi.Rank) *treeScratch {
	return r.World().Scratch(treeScratchKey, newTreeScratch).(*treeScratch)
}

// slot returns element i of a role slab sized for a partition of n drivers,
// first growing the slab to n elements when it is shorter. n is fixed for a
// run, so only a run's first call can grow a slab. A grown slab starts
// unbound; the old one is dropped whole (see treeScratch).
func slot[T any](slab *[]T, i, n int) *T {
	if len(*slab) < n {
		*slab = make([]T, n)
	}
	return &(*slab)[i]
}

// The role accessors below return r's driver slot.

func (sc *treeScratch) finisherOf(r *mpi.Rank) *treeFinisher {
	return slot(&sc.finish, r.Rank(), r.Size())
}

func (sc *treeScratch) pumpOf(r *mpi.Rank) *masterPump {
	return slot(&sc.pump, r.NodeID(), r.Machine().Geom.Nodes())
}

func (sc *treeScratch) shmemPeerOf(r *mpi.Rank) *peerCopyLoop {
	return slot(&sc.shmemPeer, r.Rank(), r.Size())
}

func (sc *treeScratch) dmaPeerOf(r *mpi.Rank) *dmaPeerLoop {
	return slot(&sc.dmaPeer, r.Rank(), r.Size())
}

func (sc *treeScratch) smpOf(r *mpi.Rank) *smpRank {
	return slot(&sc.smp, r.NodeID(), r.Machine().Geom.Nodes())
}

func (sc *treeScratch) injectorOf(r *mpi.Rank) *shaddrInjector {
	return slot(&sc.injector, r.NodeID(), r.Machine().Geom.Nodes())
}

func (sc *treeScratch) receiverOf(r *mpi.Rank) *recvLoop {
	return slot(&sc.receiver, r.NodeID(), r.Machine().Geom.Nodes())
}

func (sc *treeScratch) dualRecvOf(r *mpi.Rank) *dualRecvLoop {
	return slot(&sc.dualRecv, r.NodeID(), r.Machine().Geom.Nodes())
}

func (sc *treeScratch) copierOf(r *mpi.Rank) *shaddrCopyLoop {
	return slot(&sc.copier, r.NodeID(), r.Machine().Geom.Nodes())
}

func (sc *treeScratch) copyPeerOf(r *mpi.Rank) *shaddrPeer {
	return slot(&sc.copyPeer, r.NodeID(), r.Machine().Geom.Nodes())
}

// startTreeBcast is every tree broadcast's prologue: take the collective
// sequence number, acquire the shared state with the counters need selects
// (publishing the payload on the root), and arm the rank's finish step. It
// returns the scratch the rank's drivers come from, the state, and the bound
// finish continuation.
func startTreeBcast(r *mpi.Rank, buf data.Buf, root int, need treeCounters, done func()) (*treeScratch, *treeBcastState, func()) {
	seq := r.NextSeq()
	sc := treeScratchOf(r)
	st := acquireTreeBcast(r, sc, seq, root, buf.Len(), need)
	if r.Rank() == root {
		st.src = buf
	}
	f := sc.finisherOf(r)
	if f.fn == nil {
		f.fn = f.finish
	}
	f.r, f.st, f.buf, f.done = r, st, buf, done
	return sc, st, f.fn
}

// treeFinisher is the completion step every tree broadcast ends with:
// install the payload on non-root ranks, release the shared state, then
// continue with the caller's done.
type treeFinisher struct {
	r    *mpi.Rank
	st   *treeBcastState
	buf  data.Buf
	done func()
	fn   func() // bound finish
}

// finish runs once per rank per broadcast. The slot is cleared before done
// runs: done may start this rank's next broadcast, which re-arms it.
//
//bgplint:hot
func (f *treeFinisher) finish() {
	r, st, done := f.r, f.st, f.done
	if r.Rank() != st.root {
		installPayload(f.buf, st.src)
	}
	f.st, f.buf, f.done = nil, data.Buf{}, nil
	st.release()
	done()
}

// The chunk loops below are explicit state machines rather than recursive
// closures: each one is a small struct whose continuations are method values
// bound once per slot. Each loop calls its continuation as its last action,
// so a continuation that re-arms the loop's slot for the next broadcast
// never races the loop's own frame.

// injectLoop drives one node's injection side: the root's injector feeds
// the payload, every other node's injector feeds zeros into the global OR
// (paper §V-B). Injection is windowed against delivery to model the
// network's finite buffering.
type injectLoop struct {
	st      *treeBcastState
	p       *sim.Proc
	i       int
	cont    func()
	stepFn  func()
	afterFn func()
}

func (l *injectLoop) arm(p *sim.Proc, st *treeBcastState, cont func()) {
	if l.stepFn == nil {
		l.stepFn, l.afterFn = l.step, l.after
	}
	l.st, l.p, l.i, l.cont = st, p, 0, cont
}

//bgplint:hot
func (l *injectLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	touch := l.st.touch[l.i]
	if l.i >= injectWindow {
		pl := l.p.NewPlan()
		pl.Sleep(touch)
		l.p.WaitGEPlanThen(l.st.ops[l.i-injectWindow].Delivered(), 1, pl, l.afterFn)
	} else {
		l.p.SleepThen(touch, l.afterFn)
	}
}

//bgplint:hot
func (l *injectLoop) after() {
	l.st.ops[l.i].Inject()
	l.i++
	l.step()
}

// recvLoop drives one node's reception side, paying the core packet-touch
// cost per chunk and publishing progress to the node's software counter (sw
// is nil for observers that only pace delivery, like the SMP helper
// thread).
type recvLoop struct {
	st      *treeBcastState
	sw      *sim.Counter
	p       *sim.Proc
	i       int
	cont    func()
	afterFn func()
}

func (l *recvLoop) arm(p *sim.Proc, st *treeBcastState, sw *sim.Counter, cont func()) {
	if l.afterFn == nil {
		l.afterFn = l.after
	}
	l.st, l.sw, l.p, l.i, l.cont = st, sw, p, 0, cont
}

//bgplint:hot
func (l *recvLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	pl := l.p.NewPlan()
	pl.Sleep(l.st.touch[l.i])
	l.p.WaitGEPlanThen(l.st.ops[l.i].Delivered(), 1, pl, l.afterFn)
}

//bgplint:hot
func (l *recvLoop) after() {
	if l.sw != nil {
		l.sw.Add(int64(l.st.spans[l.i].Len))
	}
	l.i++
	l.step()
}

// masterPump drives both sides of the collective network on a single core,
// the way the production quad-mode algorithms do: the core alternates
// between injecting the next chunk and draining any chunks the network has
// delivered (paying a packet-touch each way), so chunk latency overlaps but
// the core's throughput halves — the imbalance the shared-address core
// specialization removes. After each chunk's reception cost the master hands
// the chunk to its peers: through the shared-memory segment (shmem) or by
// one DMA local put per peer (the DMA algorithms).
//
// phase records what the pump was doing when it parked for a reception, so
// afterRecv resumes exactly where the closure form's captured continuation
// would have: back into the opportunistic drain loop, retrying a
// window-blocked injection, or draining the tail.
type masterPump struct {
	st   *treeBcastState
	p    *sim.Proc
	cont func()

	injIdx  int
	recvIdx int
	phase   uint8

	// Shared-memory hand-off: publish to the software counter, then copy
	// into the master's own buffer unless it is the root.
	sw      *sim.Counter
	node    *hw.Node
	copyOut bool
	cached  bool

	// DMA hand-off: one local put per peer per chunk. peers is nil for the
	// shared-memory hand-off. perChunk counts every put on the peer's
	// counter, for FIFO peers that copy each chunk as it lands (enterRecv).
	dma      *dma.Engine
	k        *sim.Kernel
	peers    []*sim.Counter
	perChunk bool

	afterInjectFn func()
	enterRecvFn   func()
	afterRecvFn   func()
}

const (
	pumpDrain uint8 = iota // receive came from drain: drain again, then inject
	pumpRetry              // receive unblocked the window: retry the same injection
	pumpTail               // injection done: keep receiving until all chunks land
)

// armPump arms r's node master pump for one broadcast; the caller sets the
// hand-off fields.
func armPump(sc *treeScratch, r *mpi.Rank, st *treeBcastState, cont func()) *masterPump {
	m := sc.pumpOf(r)
	if m.afterInjectFn == nil {
		m.afterInjectFn, m.enterRecvFn, m.afterRecvFn = m.afterInject, m.enterRecv, m.afterRecv
	}
	m.st, m.p, m.cont = st, r.Proc(), cont
	m.injIdx, m.recvIdx, m.phase = 0, 0, pumpDrain
	return m
}

//bgplint:hot
func (m *masterPump) inject() {
	if m.injIdx == len(m.st.spans) {
		m.tail()
		return
	}
	// Injection back-pressure: the network buffers only a few chunks.
	if m.injIdx-m.recvIdx >= injectWindow {
		m.phase = pumpRetry
		m.recvBlocked()
		return
	}
	// Inject (data or zeros): one packet-touch on the pumping core.
	m.p.SleepThen(m.st.touch[m.injIdx], m.afterInjectFn)
}

//bgplint:hot
func (m *masterPump) afterInject() {
	m.st.ops[m.injIdx].Inject()
	m.injIdx++
	m.drain()
}

// drain opportunistically receives every chunk the network has already
// delivered before the pump injects the next one.
//
//bgplint:hot
func (m *masterPump) drain() {
	if m.recvIdx < len(m.st.spans) && m.st.ops[m.recvIdx].Delivered().Fired() {
		m.phase = pumpDrain
		m.p.SleepThen(m.st.touch[m.recvIdx], m.enterRecvFn)
		return
	}
	m.inject()
}

//bgplint:hot
func (m *masterPump) tail() {
	if m.recvIdx < len(m.st.spans) {
		m.phase = pumpTail
		m.recvBlocked()
		return
	}
	m.cont()
}

// recvBlocked parks behind a not-yet-delivered chunk: the wait and the
// reception packet-touch fuse into one parked stretch.
//
//bgplint:hot
func (m *masterPump) recvBlocked() {
	i := m.recvIdx
	pl := m.p.NewPlan()
	pl.Sleep(m.st.touch[i])
	m.p.WaitGEPlanThen(m.st.ops[i].Delivered(), 1, pl, m.enterRecvFn)
}

// enterRecv hands the just-received chunk to the node's peers.
//
// Every (chunk, peer) put reserves the DMA engine and the bus. A direct-put
// peer waits only for its whole payload, so its counter gets one scheduled
// add, at the last chunk's put, carrying every byte. The engine's puts
// complete in reservation order, so that add lands last among the peer's
// puts, at the instant and in the queue order the per-chunk add that
// completed the payload took, and the peer wakes where it did.
//
//bgplint:hot
func (m *masterPump) enterRecv() {
	span := m.st.spans[m.recvIdx]
	n := span.Len
	if m.peers != nil {
		last := m.recvIdx == len(m.st.spans)-1
		for p := 1; p < len(m.peers); p++ {
			putDone := m.dma.LocalCopy(m.p.Now(), n)
			switch {
			case m.perChunk:
				m.k.AddAt(putDone, m.peers[p], int64(n))
			case last:
				m.k.AddAt(putDone, m.peers[p], int64(span.Off+n))
			}
		}
		m.afterRecv()
		return
	}
	m.sw.Add(int64(n))
	if m.copyOut {
		// The master's own buffer needs the data too: a third byte-touch on
		// the same core.
		m.node.CopyThen(m.p, n, m.cached, m.afterRecvFn)
		return
	}
	m.afterRecv()
}

//bgplint:hot
func (m *masterPump) afterRecv() {
	m.recvIdx++
	switch m.phase {
	case pumpDrain:
		m.drain()
	case pumpRetry:
		m.inject()
	default:
		m.tail()
	}
}

// smpRank drives one SMP-mode rank: the main thread's injection loop and the
// helper communication thread's reception loop, joined by the helper's
// one-shot completion counter, which the slot re-arms on every broadcast of
// a run.
type smpRank struct {
	inj        injectLoop
	rx         recvLoop
	helperDone *sim.Counter
	fin        func()

	spawnFn func(p *sim.Proc)
	fireFn  func()
	joinFn  func()
}

// bcastTreeSMP is the current SMP-mode algorithm (paper §V-B): the main
// thread injects while a helper communication thread receives, together
// saturating the collective network.
func bcastTreeSMP(r *mpi.Rank, buf data.Buf, root int, done func()) {
	sc, st, finish := startTreeBcast(r, buf, root, 0, done)
	d := sc.smpOf(r)
	if d.spawnFn == nil {
		d.spawnFn, d.fireFn, d.joinFn = d.spawnHelper, d.fire, d.join
	}
	k := r.Machine().K
	d.helperDone = rearm(k, d.helperDone, "treebc%d.helper%d", int32(st.seq), int32(r.Rank()))
	d.rx.arm(nil, st, nil, d.fireFn)
	k.SpawnProgramIdx("rank%d.comm", int32(r.Rank()), d.spawnFn)
	d.fin = finish
	d.inj.arm(r.Proc(), st, d.joinFn)
	d.inj.step()
}

// spawnHelper is the helper thread's body: receive every chunk.
func (d *smpRank) spawnHelper(p *sim.Proc) {
	d.rx.p = p
	d.rx.step()
}

//bgplint:hot
func (d *smpRank) fire() { d.helperDone.Fire() }

//bgplint:hot
func (d *smpRank) join() { d.inj.p.WaitGEThen(d.helperDone, 1, d.fin) }

// bcastTreeShmem is the quad-mode latency algorithm (paper §V-B): the master
// core injects and receives into a shared-memory segment, serialized on one
// core; peers copy the data out of the segment.
func bcastTreeShmem(r *mpi.Rank, buf data.Buf, root int, done func()) {
	sc, st, finish := startTreeBcast(r, buf, root, needSW, done)
	node := r.NodeID()
	cached := quadBcastFootprint(r, buf.Len())

	if r.IsNodeMaster() {
		m := armPump(sc, r, st, finish)
		m.sw, m.node, m.copyOut, m.cached = st.sw[node], r.Node().HW, r.Rank() != root, cached
		m.dma, m.k, m.peers, m.perChunk = nil, nil, nil, false
		m.inject()
		return
	}
	l := sc.shmemPeerOf(r)
	l.arm(r, st, cached, finish)
	l.step()
}

// peerCopyLoop is the peer-side copy loop shared by the shmem and shaddr
// algorithms: wait on the node's software counter and copy arrived chunks.
type peerCopyLoop struct {
	st     *treeBcastState
	sw     *sim.Counter
	p      *sim.Proc
	node   *hw.Node
	isRoot bool
	cached bool
	i      int
	got    int64
	cont   func()
	stepFn func()
}

func (l *peerCopyLoop) arm(r *mpi.Rank, st *treeBcastState, cached bool, cont func()) {
	if l.stepFn == nil {
		l.stepFn = l.step
	}
	n := r.NodeID()
	l.st, l.sw, l.p, l.node = st, st.sw[n], r.Proc(), r.Node().HW
	l.isRoot, l.cached, l.i, l.got, l.cont = r.Rank() == st.root, cached, 0, 0, cont
}

//bgplint:hot
func (l *peerCopyLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	span := l.st.spans[l.i]
	l.got += int64(span.Len)
	pl := l.p.NewPlan()
	if !l.isRoot {
		l.node.PlanPoll(pl)
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	l.i++
	l.p.WaitGEPlanThen(l.sw, l.got, pl, l.stepFn)
}

// bcastTreeDMAFIFO is the current quad-mode algorithm: the master core
// injects and receives; the DMA then moves the data to the peers' memory
// FIFOs, from which each peer's core copies into its application buffer.
func bcastTreeDMAFIFO(r *mpi.Rank, buf data.Buf, root int, done func()) {
	treeDMACommon(r, buf, root, true, done)
}

// bcastTreeDMADirect is the current quad-mode variant where the DMA
// direct-puts into the peers' application buffers, skipping the FIFO copy.
func bcastTreeDMADirect(r *mpi.Rank, buf data.Buf, root int, done func()) {
	treeDMACommon(r, buf, root, false, done)
}

func treeDMACommon(r *mpi.Rank, buf data.Buf, root int, fifo bool, done func()) {
	sc, st, finish := startTreeBcast(r, buf, root, needPeers, done)
	node := r.NodeID()

	if r.IsNodeMaster() {
		m := armPump(sc, r, st, finish)
		m.sw, m.node, m.copyOut, m.cached = nil, nil, false, false
		m.dma, m.k, m.peers, m.perChunk = r.Node().DMA, r.Machine().K, st.peersAt(node), fifo
		m.inject()
		return
	}
	cnt := st.peersAt(node)[r.LocalRank()]
	if !fifo {
		// The DMA puts straight into the application buffer: nothing to do
		// until the whole payload has landed.
		r.Proc().WaitGEThen(cnt, int64(buf.Len()), finish)
		return
	}
	l := sc.dmaPeerOf(r)
	if l.stepFn == nil {
		l.stepFn = l.step
	}
	l.st, l.cnt, l.p, l.node = st, cnt, r.Proc(), r.Node().HW
	l.fifoCopy, l.cached = r.Rank() != root, quadBcastFootprint(r, buf.Len())
	l.i, l.got, l.cont = 0, 0, finish
	l.step()
}

// dmaPeerLoop is the peer-side reception loop of the DMA FIFO broadcast:
// wait on the per-peer DMA progress counter for each chunk and pay the core
// copy from the memory FIFO into the application buffer (the root already
// holds the data and only waits).
type dmaPeerLoop struct {
	st       *treeBcastState
	cnt      *sim.Counter
	p        *sim.Proc
	node     *hw.Node
	fifoCopy bool
	cached   bool
	i        int
	got      int64
	cont     func()
	stepFn   func()
}

//bgplint:hot
func (l *dmaPeerLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	span := l.st.spans[l.i]
	l.got += int64(span.Len)
	pl := l.p.NewPlan()
	if l.fifoCopy {
		// Memory-FIFO reception needs a core copy into the application buffer.
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	l.i++
	l.p.WaitGEPlanThen(l.cnt, l.got, pl, l.stepFn)
}

// bcastTreeShaddr is the proposed quad-mode algorithm (paper §V-B, Fig. 4):
// core specialization over shared address space. Local rank 0 injects
// (payload at the root, zeros elsewhere), local rank 1 receives directly
// into its application buffer and publishes a software counter, ranks 2 and
// 3 copy through process windows, and rank 2 additionally fills rank 0's
// buffer — the injector has no cycles to copy, and memory bandwidth is at
// least twice the collective network's.
func bcastTreeShaddr(r *mpi.Rank, buf data.Buf, root int, done func()) {
	sc, st, finish := startTreeBcast(r, buf, root, needSW|needFill, done)
	node := r.NodeID()
	total := buf.Len()
	cached := quadBcastFootprint(r, total)
	// The injector's buffer needs filling unless the injector is the root.
	fillInjector := r.RankOf(node, 0) != root

	switch r.LocalRank() {
	case 0: // injection process
		st.r0Buf[node] = buf
		d := sc.injectorOf(r)
		if d.injDoneFn == nil {
			d.injDoneFn = d.injDone
		}
		d.fill, d.total, d.fin = nil, int64(total), finish
		if r.Rank() != root {
			// Wait for rank 2 to fill this buffer.
			d.fill = st.fill[node]
		}
		d.inj.arm(r.Proc(), st, d.injDoneFn)
		rootRank := r.World().Rank(root)
		if rootRank.NodeID() == node && root != r.Rank() {
			// Inject the payload out of the root rank's buffer through a
			// process window.
			r.CNK().MapThen(r.Proc(), windowKey(rootRank.LocalRank(), st.src), total, d.inj.stepFn)
			return
		}
		d.inj.step()

	case 1: // reception process: directly into its application buffer
		st.rxBuf[node] = buf
		if r.LocalSize() == 2 {
			// Dual mode has no dedicated copy processes: the reception
			// process also fills the injector's buffer.
			l := sc.dualRecvOf(r)
			if l.stepFn == nil {
				l.stepFn, l.afterFn = l.step, l.after
			}
			l.st, l.sw, l.fill, l.p, l.node = st, st.sw[node], st.fill[node], r.Proc(), r.Node().HW
			l.fillInjector, l.cached, l.i, l.cont = fillInjector, cached, 0, finish
			if fillInjector {
				r.CNK().MapThen(r.Proc(), windowKey(0, st.r0Buf[node]), total, l.stepFn)
				return
			}
			l.step()
			return
		}
		l := sc.receiverOf(r)
		l.arm(r.Proc(), st, st.sw[node], finish)
		l.step()

	case 2: // copy process, also responsible for the injector's buffer
		l := sc.copierOf(r)
		if l.stepFn == nil {
			l.stepFn, l.mapInjFn = l.step, l.mapInjector
		}
		next := l.stepFn
		if fillInjector {
			next = l.mapInjFn
		}
		l.win.arm(r, st, total, next)
		l.sw, l.fill, l.node = st.sw[node], st.fill[node], r.Node().HW
		l.isRoot, l.fillInjector, l.cached = r.Rank() == root, fillInjector, cached
		l.i, l.got, l.cont = 0, 0, finish
		l.win.open()

	case 3: // copy process
		l := sc.copyPeerOf(r)
		l.copy.arm(r, st, cached, finish)
		l.win.arm(r, st, total, l.copy.stepFn)
		l.win.open()
	}
}

// shaddrInjector is the shaddr injection process: inject every chunk, then —
// unless it is the root — wait for rank 2 to fill its buffer.
type shaddrInjector struct {
	inj       injectLoop
	fill      *sim.Counter // nil on the root
	total     int64
	fin       func()
	injDoneFn func()
}

//bgplint:hot
func (d *shaddrInjector) injDone() {
	if d.fill != nil {
		d.inj.p.WaitGEThen(d.fill, d.total, d.fin)
		return
	}
	d.fin()
}

// rxWindow is the shaddr copy processes' prologue: wait for the reception
// rank's first published chunk — which also says that rank has arrived and
// registered its buffer — map that buffer through a process window, then
// continue with next.
type rxWindow struct {
	st    *treeBcastState
	cnk   *cnk.Process
	p     *sim.Proc
	node  int
	total int
	next  func()
	mapFn func()
}

func (w *rxWindow) arm(r *mpi.Rank, st *treeBcastState, total int, next func()) {
	if w.mapFn == nil {
		w.mapFn = w.mapRx
	}
	w.st, w.cnk, w.p, w.node, w.total, w.next = st, r.CNK(), r.Proc(), r.NodeID(), total, next
}

//bgplint:hot
func (w *rxWindow) open() { w.p.WaitGEThen(w.st.sw[w.node], 1, w.mapFn) }

//bgplint:hot
func (w *rxWindow) mapRx() {
	w.cnk.MapThen(w.p, windowKey(1, w.st.rxBuf[w.node]), w.total, w.next)
}

// shaddrPeer is the shaddr rank-3 copy process: the window prologue, then
// the peer copy loop.
type shaddrPeer struct {
	win  rxWindow
	copy peerCopyLoop
}

// dualRecvLoop is the dual-mode reception loop of the shaddr tree broadcast:
// with no dedicated copy processes, the reception process pays the per-chunk
// packet-touch, publishes the software counter, and — when the injector is
// not the root — copies each chunk into the injector's buffer on the same
// plan.
type dualRecvLoop struct {
	st           *treeBcastState
	sw           *sim.Counter
	fill         *sim.Counter
	p            *sim.Proc
	node         *hw.Node
	fillInjector bool
	cached       bool
	i            int
	cont         func()
	stepFn       func()
	afterFn      func()
}

//bgplint:hot
func (l *dualRecvLoop) step() {
	if l.i == len(l.st.spans) {
		l.cont()
		return
	}
	span := l.st.spans[l.i]
	pl := l.p.NewPlan()
	pl.Sleep(l.st.touch[l.i])
	pl.Add(l.sw, int64(span.Len))
	if l.fillInjector {
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	l.p.WaitGEPlanThen(l.st.ops[l.i].Delivered(), 1, pl, l.afterFn)
}

//bgplint:hot
func (l *dualRecvLoop) after() {
	if l.fillInjector {
		l.fill.Add(int64(l.st.spans[l.i].Len))
	}
	l.i++
	l.step()
}

// shaddrCopyLoop is the shaddr rank-2 copy loop: after the window prologue
// (and, when the injector is not the root, mapping the injector's buffer
// too), poll the reception rank's software counter, copy arrived chunks
// through the process window, and fill rank 0's buffer as well (the extra
// copy rides the same plan; memory bandwidth exceeds the tree's, so it does
// not throttle the flow).
type shaddrCopyLoop struct {
	win          rxWindow
	sw           *sim.Counter
	fill         *sim.Counter
	node         *hw.Node
	isRoot       bool
	fillInjector bool
	cached       bool
	i            int
	got          int64
	cont         func()
	stepFn       func()
	mapInjFn     func()
}

// mapInjector maps the injector's buffer before the copy loop starts.
//
//bgplint:hot
func (l *shaddrCopyLoop) mapInjector() {
	w := &l.win
	w.cnk.MapThen(w.p, windowKey(0, w.st.r0Buf[w.node]), w.total, l.stepFn)
}

//bgplint:hot
func (l *shaddrCopyLoop) step() {
	st, p := l.win.st, l.win.p
	if l.i == len(st.spans) {
		l.cont()
		return
	}
	span := st.spans[l.i]
	l.got += int64(span.Len)
	pl := p.NewPlan()
	l.node.PlanPoll(pl)
	if !l.isRoot {
		l.node.PlanCopy(pl, span.Len, l.cached)
	}
	if l.fillInjector {
		l.node.PlanCopy(pl, span.Len, l.cached)
		pl.Add(l.fill, int64(span.Len))
	}
	l.i++
	p.WaitGEPlanThen(l.sw, l.got, pl, l.stepFn)
}
