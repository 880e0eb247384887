package coll

import (
	"fmt"

	"bgpcoll/internal/ccmi"
	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// The torus broadcasts are written in explicit-resume (program) style like
// the tree algorithms: each chunk loop is a small state machine whose
// continuations are method values bound once per rank per broadcast (see the
// note in bcast_tree.go), so program-mode ranks run them without goroutines
// or per-chunk closure garbage while goroutine-backed ranks execute the
// identical bodies on their own stacks.

// torusBcastState is the job-wide shared state of one torus broadcast: the
// per-node network delivery logs plus the intra-node coordination counters
// each algorithm variant needs.
type torusBcastState struct {
	src  data.Buf
	dels []*ccmi.Delivery

	sw   []*sim.Counter   // per node: master-published software message counter
	done []*sim.Counter   // per node: peers finished copying out
	peer [][]*sim.Counter // per node, per local peer: bytes landed for that peer
	enq  []*sim.Counter   // per node: Bcast-FIFO bytes enqueued by the master

	masterBuf []data.Buf // per node: the master's receive buffer (window keys)
}

const torusBcastKind = "bcast.torus"

func getTorusBcastState(r *mpi.Rank, seq int64) *torusBcastState {
	return r.WorldShared(seq, torusBcastKind, func() any {
		m := r.Machine()
		nodes := m.Geom.Nodes()
		ppn := r.LocalSize()
		st := &torusBcastState{
			dels: make([]*ccmi.Delivery, nodes),
			sw:   make([]*sim.Counter, nodes),
			done: make([]*sim.Counter, nodes),
			peer: make([][]*sim.Counter, nodes),
			enq:  make([]*sim.Counter, nodes),
		}
		for n := 0; n < nodes; n++ {
			st.dels[n] = ccmi.NewDelivery(m.K, fmt.Sprintf("bcast%d.node%d", seq, n))
			st.sw[n] = m.K.NewCounter("sw")
			st.done[n] = m.K.NewCounter("done")
			st.enq[n] = m.K.NewCounter("enq")
			st.peer[n] = make([]*sim.Counter, ppn)
			for p := 1; p < ppn; p++ {
				st.peer[n][p] = m.K.NewCounter("peer")
			}
		}
		st.masterBuf = make([]data.Buf, nodes)
		return st
	}).(*torusBcastState)
}

// torusFinish builds the completion continuation every torus broadcast ends
// with: install the payload on non-root ranks, release the shared state (the
// position the blocking form's defer ran at), then continue.
func torusFinish(r *mpi.Rank, st *torusBcastState, seq int64, buf data.Buf, root int, done func()) func() {
	return func() {
		if r.Rank() != root {
			installPayload(buf, st.src)
		}
		r.ReleaseWorldShared(seq, torusBcastKind)
		done()
	}
}

// startTorusNetwork launches the multi-color rectangle broadcast from the
// root rank's node. Called by the root rank only.
func startTorusNetwork(r *mpi.Rank, st *torusBcastState, buf data.Buf, hook func(node int, span hw.Span, t sim.Time)) {
	m := r.Machine()
	st.src = buf
	colors := m.Colors()
	if n := r.World().Tunables.TorusColors; n > 0 && n <= len(colors) {
		colors = colors[:n]
	}
	b := &ccmi.Bcast{
		M:          m,
		Root:       r.Coord(),
		Src:        buf,
		Bufs:       make([]data.Buf, m.Geom.Nodes()),
		Deliveries: st.dels,
		Colors:     colors,
		Lane0:      0,
		Hook:       hook,
	}
	b.Run()
}

// bcastTorusDirectPut is the current production algorithm (paper §V-A): the
// DMA performs the network transfer, and in quad mode also the fourth,
// intra-node dimension of the spanning tree — three additional local direct
// puts per delivered chunk, all contending on the same engine.
func bcastTorusDirectPut(r *mpi.Rank, buf data.Buf, root int, done func()) {
	seq := r.NextSeq()
	st := getTorusBcastState(r, seq)
	total := buf.Len()
	m := r.Machine()
	ppn := r.LocalSize()
	finish := torusFinish(r, st, seq, buf, root, done)

	if r.Rank() == root {
		hook := func(node int, span hw.Span, t sim.Time) {
			// AddAt is the closure-free At(putDone, func() { cnt.Add(n) }):
			// one scheduled add per (chunk, peer), the same hot site the tree
			// DMA broadcasts converted.
			for p := 1; p < ppn; p++ {
				putDone := m.Node(node).DMA.LocalCopy(t, span.Len)
				m.K.AddAt(putDone, st.peer[node][p], int64(span.Len))
			}
		}
		startTorusNetwork(r, st, buf, hook)
	}

	if r.IsNodeMaster() {
		// Block until this rank's node has received the full message.
		r.Proc().WaitGEThen(st.dels[r.NodeID()].Counter, int64(total), finish)
	} else {
		r.Proc().WaitGEThen(st.peer[r.NodeID()][r.LocalRank()], int64(total), finish)
	}
}

// bcastTorusShaddr is the proposed shared-address algorithm (paper §V-A):
// the network direct-puts into the master's application buffer; the master
// mirrors the DMA byte counters into a software message counter; peers copy
// newly arrived ranges directly out of the master's buffer through process
// windows; an atomic completion counter returns the buffer to the master.
func bcastTorusShaddr(r *mpi.Rank, buf data.Buf, root int, done func()) {
	seq := r.NextSeq()
	st := getTorusBcastState(r, seq)
	total := buf.Len()
	node := r.NodeID()
	finish := torusFinish(r, st, seq, buf, root, done)

	if r.Rank() == root {
		startTorusNetwork(r, st, buf, nil)
	}

	switch {
	case r.IsNodeMaster():
		st.masterBuf[node] = buf
		l := &torusPumpLoop{
			del: st.dels[node], sw: st.sw[node], done: st.done[node],
			p: r.Proc(), node: r.Node().HW,
			peers: int64(r.LocalSize() - 1), total: total, cont: finish,
		}
		l.drainFn = l.drain
		l.mirrorFn = l.mirror
		l.step()

	default:
		sw := st.sw[node]
		if r.Rank() == root {
			// A non-master root already holds the data; it only signals.
			st.done[node].Add(1)
			finish()
			return
		}
		// The first published range also tells us the master has arrived
		// and its buffer is registered; map it once.
		r.Proc().WaitGEThen(sw, 1, func() {
			r.CNK().MapThen(r.Proc(), windowKey(0, st.masterBuf[node]), total, func() {
				l := &torusPeerCopyLoop{
					del: st.dels[node], sw: sw, done: st.done[node],
					p: r.Proc(), node: r.Node().HW,
					cached: quadBcastFootprint(r, total), total: total, cont: finish,
				}
				l.arriveFn = l.arrive
				l.drainFn = l.drainAvail
				l.afterFn = l.afterCopy
				l.outer()
			})
		})
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
	l.batch = sumSpanLens(l.del.Drain(&l.spanIdx))
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
	arriveFn func()
	drainFn  func()
	afterFn  func()
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
	if l.spanIdx < len(l.del.Spans) && l.seen < l.avail {
		span := l.del.Spans[l.spanIdx]
		l.spanIdx++
		l.lastLen = span.Len
		l.node.CopyThen(l.p, span.Len, l.cached, l.afterFn)
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
	seq := r.NextSeq()
	st := getTorusBcastState(r, seq)
	total := buf.Len()
	node := r.NodeID()
	params := r.Machine().Cfg.Params
	slot := params.FIFOSlotBytes
	capacity := slot * params.FIFOSlots
	// Staging through the FIFO doubles the traffic over every byte, so the
	// effective working set is twice the shared-address scheme's; large
	// messages fall out of the cache earlier.
	cached := r.Node().HW.Cached(2 * r.LocalSize() * total)
	finish := torusFinish(r, st, seq, buf, root, done)

	if r.Rank() == root {
		startTorusNetwork(r, st, buf, nil)
	}

	switch {
	case r.IsNodeMaster():
		l := &fifoMasterLoop{
			del: st.dels[node], enq: st.enq[node], done: st.done[node],
			peer: st.peer[node], p: r.Proc(), node: r.Node().HW,
			peers: r.LocalSize(), total: total, slot: slot,
			capacity: capacity, cached: cached, cont: finish,
		}
		l.availFn = l.onAvail
		l.copiedFn = l.copied
		l.peerOKFn = l.peerOK
		l.outer()

	default:
		l := &fifoPeerLoop{
			enq: st.enq[node], consumed: st.peer[node][r.LocalRank()],
			done: st.done[node], p: r.Proc(), node: r.Node().HW,
			isRoot: r.Rank() == root, cached: cached, total: total, slot: slot,
			cont: finish,
		}
		l.availFn = l.onAvail
		l.copyFn = l.copySlot
		l.afterFn = l.after
		l.outer()
	}
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
