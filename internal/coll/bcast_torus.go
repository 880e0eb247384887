package coll

import (
	"bgpcoll/internal/ccmi"
	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// The torus broadcasts are written in explicit-resume (program) style like
// the tree algorithms, and recycle their per-call state the same way
// (DESIGN.md §17): the job-wide state of a broadcast, with its ccmi schedule
// and delivery logs, comes from a per-world free list, and every rank's
// drivers — the chunk loops and the finish step — live in per-world role
// slabs whose continuations are method values bound once per slot. The
// registration sequence is the one the per-call closures produced, so
// virtual times are unchanged and a repeat broadcast on a warmed world
// allocates nothing.

// torusBcastState is the job-wide shared state of one torus broadcast: the
// network schedule and its per-node delivery logs, plus the intra-node
// coordination counters each algorithm variant needs. Like treeBcastState
// it is recycled: its Go memory and its counters are kept, and every arm
// re-arms the counters in a fixed order. The scratch ends with the run
// (torusScratch.EndRun), so no handle outlives a Reset.
type torusBcastState struct {
	sc   *torusScratch
	m    *machine.Machine
	root int
	refs int // ranks that have not released the state yet
	ppn  int

	src  data.Buf
	exec ccmi.Bcast
	delv []ccmi.Delivery  // per node: the delivery logs
	dels []*ccmi.Delivery // pointer view of delv for exec

	sw   []*sim.Counter // per node: master-published software message counter
	done []*sim.Counter // per node: peers finished copying out
	enq  []*sim.Counter // per node: Bcast-FIFO bytes enqueued by the master
	peer []*sim.Counter // per node, per local rank (node-major; slot 0 unused): bytes landed for that peer

	landed []int // per node: bytes the network has delivered so far (Delivered)

	masterBuf []data.Buf // per node: the master's receive buffer (window keys)
}

// arm (re)initializes a state for broadcast seq, re-arming (or, on the
// state's first call, carving) per node the delivery counter, sw, done, enq
// and the peer counters, in that order.
func (st *torusBcastState) arm(r *mpi.Rank, seq int64, root int) {
	m := r.Machine()
	k := m.K
	nodes := m.Geom.Nodes()
	ppn := r.LocalSize()
	st.m, st.root, st.refs, st.ppn = m, root, r.Size(), ppn
	st.src = data.Buf{}
	st.delv, st.dels = fitDeliveries(st.delv, st.dels, nodes)
	st.sw = fit(st.sw, nodes)
	st.done = fit(st.done, nodes)
	st.enq = fit(st.enq, nodes)
	st.peer = fit(st.peer, nodes*ppn)
	st.masterBuf = fit(st.masterBuf, nodes)
	clear(st.masterBuf)
	st.landed = fit(st.landed, nodes)
	clear(st.landed)
	for n := 0; n < nodes; n++ {
		st.delv[n].Arm(rearm(k, st.delv[n].Counter, "bcast%d.node%d", int32(seq), int32(n)))
		st.sw[n] = rearm(k, st.sw[n], "sw")
		st.done[n] = rearm(k, st.done[n], "done")
		st.enq[n] = rearm(k, st.enq[n], "enq")
		st.peer[n*ppn] = nil
		for p := 1; p < ppn; p++ {
			st.peer[n*ppn+p] = rearm(k, st.peer[n*ppn+p], "peer")
		}
	}
}

// fitDeliveries resizes a recycled set of delivery logs and its pointer
// view to n nodes, binding the view only when the logs move.
func fitDeliveries(delv []ccmi.Delivery, dels []*ccmi.Delivery, n int) ([]ccmi.Delivery, []*ccmi.Delivery) {
	if cap(delv) < n {
		delv, dels = make([]ccmi.Delivery, n), make([]*ccmi.Delivery, n)
		for i := range delv {
			dels[i] = &delv[i]
		}
	}
	return delv[:n], dels[:n]
}

// release drops one rank's reference; the last returns the state to the
// free list.
func (st *torusBcastState) release() {
	st.refs--
	if st.refs > 0 {
		return
	}
	// The payload belongs to the caller, not the free list.
	st.src, st.exec.Src = data.Buf{}, data.Buf{}
	st.sc.states.put(st)
}

// peersAt returns node n's per-local-rank peer counters (slot 0 unused).
func (st *torusBcastState) peersAt(n int) []*sim.Counter {
	return st.peer[n*st.ppn : (n+1)*st.ppn]
}

// Delivered is the direct-put broadcast's delivery hook: every chunk a node
// receives is DMA-put to each local peer. A peer waits only for its whole
// payload, so its counter gets one scheduled add, at the put of the node's
// last chunk, carrying every byte; the node's engine completes the puts in
// reservation order, so that add lands when and where the per-chunk add that
// completed the payload did (see masterPump.enterRecv).
//
//bgplint:hot
func (st *torusBcastState) Delivered(node int, span hw.Span, t sim.Time) {
	st.landed[node] += span.Len
	last := st.landed[node] == st.src.Len()
	engine := st.m.Node(node).DMA
	for p := 1; p < st.ppn; p++ {
		putDone := engine.LocalCopy(t, span.Len)
		if last {
			st.m.K.AddAt(putDone, st.peer[node*st.ppn+p], int64(st.landed[node]))
		}
	}
}

// torusScratchKey names the torus broadcasts' per-world scratch.
var torusScratchKey = mpi.NewScratchKey("coll.torus")

// torusScratch is what the torus broadcasts keep on a world across the
// calls of a run: the in-flight and released states, the torus colors, and
// one dense slab per driver role (see treeScratch for the slab rules).
type torusScratch struct {
	states recycled[torusBcastState]
	colors []geometry.Color

	finish   []torusFinisher     // by rank: every algorithm's completion step
	pump     []torusPumpLoop     // by node: shaddr masters
	copyPeer []torusPeerCopyLoop // by rank: shaddr peers
	fifoMst  []fifoMasterLoop    // by node: Bcast-FIFO masters
	fifoPeer []fifoPeerLoop      // by rank: Bcast-FIFO peers
}

func newTorusScratch() any { return &torusScratch{} }

// SteadyState implements sim.Hasher: a torus broadcast in flight at an
// iteration boundary refuses the capture.
func (sc *torusScratch) SteadyState(f *sim.FP) { sc.states.inFlight(f, "torus broadcast") }

// EndRun implements mpi.RunScratch: the scratch lives for one run. A
// state's delivery logs hold every chunk for every node, and the peer
// slabs bind several continuations per rank; kept on a world idle in a
// pool, they raised serve-mixed's peak heap by a fifth.
func (sc *torusScratch) EndRun() { *sc = torusScratch{} }

// startTorusBcast is every torus broadcast's prologue: take the collective
// sequence number, acquire the shared state, arm the rank's finish step,
// and on the root publish the payload and start the network schedule, with
// the state as its delivery hook for the direct-put algorithm.
func startTorusBcast(r *mpi.Rank, buf data.Buf, root int, directPut bool, done func()) (*torusScratch, *torusBcastState, func()) {
	seq := r.NextSeq()
	sc := r.World().Scratch(torusScratchKey, newTorusScratch).(*torusScratch)
	st := sc.states.find(seq)
	if st == nil {
		st = sc.states.take(seq)
		st.sc = sc
		st.arm(r, seq, root)
	}
	f := slot(&sc.finish, r.Rank(), r.Size())
	if f.fn == nil {
		f.fn = f.finish
	}
	f.r, f.st, f.buf, f.done = r, st, buf, done
	if r.Rank() == root {
		var hook ccmi.DeliveryHook
		if directPut {
			hook = st
		}
		startTorusNetwork(r, sc, st, buf, hook)
	}
	return sc, st, f.fn
}

// torusFinisher is the completion step every torus broadcast ends with:
// install the payload on non-root ranks, release the shared state, then
// continue with the caller's done.
type torusFinisher struct {
	r    *mpi.Rank
	st   *torusBcastState
	buf  data.Buf
	done func()
	fn   func() // bound finish
}

// finish runs once per rank per broadcast; the slot is cleared before done
// runs, which may start this rank's next broadcast.
//
//bgplint:hot
func (f *torusFinisher) finish() {
	r, st, done := f.r, f.st, f.done
	if r.Rank() != st.root {
		installPayload(f.buf, st.src)
	}
	f.st, f.buf, f.done = nil, data.Buf{}, nil
	st.release()
	done()
}

// startTorusNetwork launches the multi-color rectangle broadcast from the
// root rank's node. Called by the root rank only.
func startTorusNetwork(r *mpi.Rank, sc *torusScratch, st *torusBcastState, buf data.Buf, hook ccmi.DeliveryHook) {
	m := r.Machine()
	st.src = buf
	if sc.colors == nil {
		sc.colors = m.Colors()
	}
	colors := sc.colors
	if n := r.World().Tunables.TorusColors; n > 0 && n <= len(colors) {
		colors = colors[:n]
	}
	b := &st.exec
	b.M, b.Root, b.Src, b.Bufs = m, r.Coord(), buf, nil
	b.Deliveries, b.Colors, b.Lane0, b.Hook = st.dels, colors, 0, hook
	b.Run()
}

// bcastTorusDirectPut is the current production algorithm (paper §V-A): the
// DMA performs the network transfer, and in quad mode also the fourth,
// intra-node dimension of the spanning tree — three additional local direct
// puts per delivered chunk (Delivered), all contending on the same engine.
func bcastTorusDirectPut(r *mpi.Rank, buf data.Buf, root int, done func()) {
	_, st, finish := startTorusBcast(r, buf, root, true, done)
	total := int64(buf.Len())
	if r.IsNodeMaster() {
		// Block until this rank's node has received the full message.
		r.Proc().WaitGEThen(st.dels[r.NodeID()].Counter, total, finish)
	} else {
		r.Proc().WaitGEThen(st.peersAt(r.NodeID())[r.LocalRank()], total, finish)
	}
}

// bcastTorusShaddr is the proposed shared-address algorithm (paper §V-A):
// the network direct-puts into the master's application buffer; the master
// mirrors the DMA byte counters into a software message counter; peers copy
// newly arrived ranges directly out of the master's buffer through process
// windows; an atomic completion counter returns the buffer to the master.
func bcastTorusShaddr(r *mpi.Rank, buf data.Buf, root int, done func()) {
	sc, st, finish := startTorusBcast(r, buf, root, false, done)
	total := buf.Len()
	node := r.NodeID()

	switch {
	case r.IsNodeMaster():
		st.masterBuf[node] = buf
		l := slot(&sc.pump, node, r.Machine().Geom.Nodes())
		if l.drainFn == nil {
			l.drainFn, l.mirrorFn = l.drain, l.mirror
		}
		l.del, l.sw, l.done = st.dels[node], st.sw[node], st.done[node]
		l.p, l.node = r.Proc(), r.Node().HW
		l.peers, l.total, l.cont = int64(r.LocalSize()-1), total, finish
		l.spanIdx, l.got, l.batch = 0, 0, 0
		l.step()

	case r.Rank() == root:
		// A non-master root already holds the data; it only signals.
		st.done[node].Add(1)
		finish()

	default:
		l := slot(&sc.copyPeer, r.Rank(), r.Size())
		if l.arriveFn == nil {
			l.mapFn, l.outerFn = l.mapMaster, l.outer
			l.arriveFn, l.drainFn, l.afterFn = l.arrive, l.drainAvail, l.afterCopy
		}
		l.st, l.r = st, r
		l.del, l.sw, l.done = st.dels[node], st.sw[node], st.done[node]
		l.p, l.node = r.Proc(), r.Node().HW
		l.cached, l.total, l.cont = quadBcastFootprint(r, total), total, finish
		l.spanIdx, l.seen, l.avail, l.lastLen = 0, 0, 0, 0
		// The first published range also tells us the master has arrived
		// and its buffer is registered; map it once.
		l.p.WaitGEThen(l.sw, 1, l.mapFn)
	}
}

// torusPumpLoop is the shaddr master's mirror pump: wait for new DMA
// delivery progress, then mirror the hardware counter into the shared
// software counter the peers poll (one poll charge per batch).
type torusPumpLoop struct {
	del      *ccmi.Delivery
	sw       *sim.Counter
	done     *sim.Counter
	p        *sim.Proc
	node     *hw.Node
	peers    int64
	total    int
	spanIdx  int
	got      int
	batch    int
	cont     func()
	drainFn  func()
	mirrorFn func()
}

//bgplint:hot
func (l *torusPumpLoop) step() {
	if l.got >= l.total {
		// The master may reuse its buffer once every peer has copied out.
		l.p.WaitGEThen(l.done, l.peers, l.cont)
		return
	}
	l.p.WaitGEThen(l.del.Counter, int64(l.got)+1, l.drainFn)
}

//bgplint:hot
func (l *torusPumpLoop) drain() {
	l.batch = sumLens(l.del.Drain(&l.spanIdx))
	l.node.PollThen(l.p, l.mirrorFn)
}

//bgplint:hot
func (l *torusPumpLoop) mirror() {
	l.sw.Add(int64(l.batch))
	l.got += l.batch
	l.step()
}

// torusPeerCopyLoop is the shaddr peer's copy-out loop: wait for the master
// to publish new ranges, poll the software counter, and copy every newly
// delivered span out of the master's buffer through the process window.
type torusPeerCopyLoop struct {
	st       *torusBcastState
	r        *mpi.Rank
	del      *ccmi.Delivery
	sw       *sim.Counter
	done     *sim.Counter
	p        *sim.Proc
	node     *hw.Node
	cached   bool
	total    int
	spanIdx  int
	seen     int
	avail    int
	lastLen  int
	cont     func()
	mapFn    func()
	outerFn  func()
	arriveFn func()
	drainFn  func()
	afterFn  func()
}

// mapMaster maps the master's buffer through the process window, then
// starts copying.
//
//bgplint:hot
func (l *torusPeerCopyLoop) mapMaster() {
	node := l.r.NodeID()
	l.r.CNK().MapThen(l.p, windowKey(0, l.st.masterBuf[node]), l.total, l.outerFn)
}

//bgplint:hot
func (l *torusPeerCopyLoop) outer() {
	if l.seen >= l.total {
		l.done.Add(1)
		l.cont()
		return
	}
	l.p.WaitGEThen(l.sw, int64(l.seen)+1, l.arriveFn)
}

//bgplint:hot
func (l *torusPeerCopyLoop) arrive() {
	l.node.PollThen(l.p, l.drainFn)
}

//bgplint:hot
func (l *torusPeerCopyLoop) drainAvail() {
	l.avail = int(l.sw.Value())
	l.copyNext()
}

//bgplint:hot
func (l *torusPeerCopyLoop) copyNext() {
	if l.spanIdx < len(l.del.Lens) && l.seen < l.avail {
		n := int(l.del.Lens[l.spanIdx])
		l.spanIdx++
		l.lastLen = n
		l.node.CopyThen(l.p, n, l.cached, l.afterFn)
		return
	}
	l.outer()
}

//bgplint:hot
func (l *torusPeerCopyLoop) afterCopy() {
	l.seen += l.lastLen
	l.copyNext()
}

// bcastTorusFIFO is the shared-memory Bcast-FIFO algorithm (paper §V-A): the
// master packetizes chunks received in its application buffer into the
// concurrent broadcast FIFO (data plus connection-id metadata per slot); the
// three peers dequeue every slot. FIFO capacity provides back-pressure.
func bcastTorusFIFO(r *mpi.Rank, buf data.Buf, root int, done func()) {
	sc, st, finish := startTorusBcast(r, buf, root, false, done)
	total := buf.Len()
	node := r.NodeID()
	params := &r.Machine().Cfg.Params
	slotBytes := params.FIFOSlotBytes
	// Staging through the FIFO doubles the traffic over every byte, so the
	// effective working set is twice the shared-address scheme's; large
	// messages fall out of the cache earlier.
	cached := r.Node().HW.Cached(2 * r.LocalSize() * total)

	if r.IsNodeMaster() {
		l := slot(&sc.fifoMst, node, r.Machine().Geom.Nodes())
		if l.availFn == nil {
			l.availFn, l.copiedFn, l.peerOKFn = l.onAvail, l.copied, l.peerOK
		}
		l.del, l.enq, l.done, l.peer = st.dels[node], st.enq[node], st.done[node], st.peersAt(node)
		l.p, l.node = r.Proc(), r.Node().HW
		l.peers, l.total, l.slot = r.LocalSize(), total, slotBytes
		l.capacity, l.cached, l.cont = slotBytes*params.FIFOSlots, cached, finish
		l.enqueued, l.avail, l.piece, l.thr, l.waitIdx = 0, 0, 0, 0, 0
		l.outer()
		return
	}
	l := slot(&sc.fifoPeer, r.Rank(), r.Size())
	if l.availFn == nil {
		l.availFn, l.copyFn, l.afterFn = l.onAvail, l.copySlot, l.after
	}
	l.enq, l.consumed, l.done = st.enq[node], st.peersAt(node)[r.LocalRank()], st.done[node]
	l.p, l.node = r.Proc(), r.Node().HW
	l.isRoot, l.cached, l.total, l.slot, l.cont = r.Rank() == root, cached, total, slotBytes, finish
	l.seen, l.avail, l.piece = 0, 0, 0
	l.outer()
}

// fifoMasterLoop is the Bcast-FIFO master's packetizer: wait for new network
// delivery, carve the arrived bytes into FIFO slots, enforce the capacity
// back-pressure against the slowest peer, and pay a core copy per slot.
type fifoMasterLoop struct {
	del      *ccmi.Delivery
	enq      *sim.Counter
	done     *sim.Counter
	peer     []*sim.Counter
	p        *sim.Proc
	node     *hw.Node
	peers    int
	total    int
	slot     int
	capacity int
	cached   bool
	enqueued int
	avail    int
	piece    int
	thr      int64
	waitIdx  int
	cont     func()
	availFn  func()
	copiedFn func()
	peerOKFn func()
}

//bgplint:hot
func (l *fifoMasterLoop) outer() {
	if l.enqueued >= l.total {
		l.p.WaitGEThen(l.done, int64(l.peers-1), l.cont)
		return
	}
	l.p.WaitGEThen(l.del.Counter, int64(l.enqueued)+1, l.availFn)
}

//bgplint:hot
func (l *fifoMasterLoop) onAvail() {
	l.avail = int(l.del.Counter.Value())
	l.slots()
}

//bgplint:hot
func (l *fifoMasterLoop) slots() {
	if l.enqueued >= l.avail {
		l.outer()
		return
	}
	l.piece = l.slot
	if l.avail-l.enqueued < l.piece {
		l.piece = l.avail - l.enqueued
	}
	// Space check: every peer must have drained far enough that a slot is
	// free (myslot - head < fifoSize).
	if thr := int64(l.enqueued + l.piece - l.capacity); thr > 0 {
		l.thr = thr
		l.waitIdx = 1
		l.waitPeers()
		return
	}
	l.enqueue()
}

//bgplint:hot
func (l *fifoMasterLoop) waitPeers() {
	if l.waitIdx >= l.peers {
		l.enqueue()
		return
	}
	l.p.WaitGEThen(l.peer[l.waitIdx], l.thr, l.peerOKFn)
}

//bgplint:hot
func (l *fifoMasterLoop) peerOK() {
	l.waitIdx++
	l.waitPeers()
}

//bgplint:hot
func (l *fifoMasterLoop) enqueue() {
	// Copy data and metadata into the reserved slot.
	l.node.CopyThen(l.p, l.piece, l.cached, l.copiedFn)
}

//bgplint:hot
func (l *fifoMasterLoop) copied() {
	l.enq.Add(int64(l.piece))
	l.enqueued += l.piece
	l.slots()
}

// fifoPeerLoop is the Bcast-FIFO reader loop each peer runs: wait for the
// master to enqueue, then dequeue every available slot, paying a poll and a
// core copy per slot (the root already holds the data and only advances its
// head pointer).
type fifoPeerLoop struct {
	enq      *sim.Counter
	consumed *sim.Counter
	done     *sim.Counter
	p        *sim.Proc
	node     *hw.Node
	isRoot   bool
	cached   bool
	total    int
	slot     int
	seen     int
	avail    int
	piece    int
	cont     func()
	availFn  func()
	copyFn   func()
	afterFn  func()
}

//bgplint:hot
func (l *fifoPeerLoop) outer() {
	if l.seen >= l.total {
		l.done.Add(1)
		l.cont()
		return
	}
	l.p.WaitGEThen(l.enq, int64(l.seen)+1, l.availFn)
}

//bgplint:hot
func (l *fifoPeerLoop) onAvail() {
	l.avail = int(l.enq.Value())
	l.slots()
}

//bgplint:hot
func (l *fifoPeerLoop) slots() {
	if l.seen >= l.avail {
		l.outer()
		return
	}
	l.piece = l.slot
	if l.avail-l.seen < l.piece {
		l.piece = l.avail - l.seen
	}
	if !l.isRoot {
		l.node.PollThen(l.p, l.copyFn)
		return
	}
	l.after()
}

//bgplint:hot
func (l *fifoPeerLoop) copySlot() {
	l.node.CopyThen(l.p, l.piece, l.cached, l.afterFn)
}

//bgplint:hot
func (l *fifoPeerLoop) after() {
	// The last arriving reader's decrement frees the slot.
	l.consumed.Add(int64(l.piece))
	l.seen += l.piece
	l.slots()
}
