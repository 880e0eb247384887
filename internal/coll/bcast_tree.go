package coll

import (
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
// shared state, step tables included, is recycled through a per-world free
// list, and every rank's drivers — its own driver record (window prologue,
// chunk-loop binding, finish step), the node master's pump, the SMP helper —
// live in per-world slabs whose continuations are method values bound once
// per slot. The registration sequence (which *Then runs, in what order, with
// what steps) is the same one the per-call closures produced, so virtual
// times are bit-for-bit unchanged.

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
	rxBuf []data.Buf     // per node: reception rank's buffer (shaddr's window keys)
	r0Buf []data.Buf     // per node: injector rank's buffer (shaddr's window keys)

	// rootIn is fired by a root that is not its node's injector when it
	// enters, and the root node's injector waits for it before sending the
	// root's payload (waitsForRoot). rootWait says this call uses it; the
	// handle is kept for re-arming either way.
	rootIn   *sim.Counter
	rootWait bool

	// The chunk loops' step tables: tabs[:ntab] are this call's, built by
	// the first rank of each role (table); the rest keep their capacity.
	tabs []*chunkTable
	ntab int
}

// treeCounters selects the per-node state a tree broadcast algorithm
// reads; arm carves or sizes only that, and leaves the other slices empty.
type treeCounters uint8

const (
	needSW      treeCounters = 1 << iota // sw: shmem and shaddr
	needFill                             // fill: shaddr
	needPeers                            // peer: the two DMA algorithms
	needWindows                          // rxBuf and r0Buf: shaddr
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
	st.ntab = 0
	st.setSpans(r, total)
	st.ops = fit(st.ops, len(st.spans))
	for i, s := range st.spans {
		m.Tree.InitOp(&st.ops[i], s.Len)
	}
	st.sw, st.fill, st.peer = st.sw[:0], st.fill[:0], st.peer[:0]
	st.rxBuf, st.r0Buf = st.rxBuf[:0], st.r0Buf[:0]
	if need&needSW != 0 {
		st.sw = fit(st.sw, nodes)
	}
	if need&needFill != 0 {
		st.fill = fit(st.fill, nodes)
	}
	if need&needPeers != 0 {
		st.peer = fit(st.peer, nodes*ppn)
	}
	if need&needWindows != 0 {
		// Zero already: a state drops its window keys at its last release.
		st.rxBuf = fit(st.rxBuf, nodes)
		st.r0Buf = fit(st.r0Buf, nodes)
	}
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
	st.rootWait = root%ppn != 0
	if st.rootWait {
		st.rootIn = rearm(k, st.rootIn, "treebc%d.root", int32(seq))
	}
}

// waitsForRoot reports whether r, an injector, must wait on rootIn before
// injecting: it injects on the root's node for a root that is not the
// injector, so it sends the root's payload, which the root publishes on
// entering (startTreeBcast).
func (st *treeBcastState) waitsForRoot(r *mpi.Rank) bool {
	return st.rootWait && r.NodeID() == st.root/st.ppn
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
// at). The last release returns the state to the free list, holding no
// caller's buffer.
func (st *treeBcastState) release() {
	st.refs--
	if st.refs > 0 {
		return
	}
	st.src = data.Buf{}
	clear(st.rxBuf)
	clear(st.r0Buf)
	st.sc.states.put(st)
}

// dropCounters forgets every counter handle and window key the state
// holds, in the capacity past each slice's length too, so its next arm
// carves afresh.
func (st *treeBcastState) dropCounters() {
	clear(st.ops[:cap(st.ops)])
	clear(st.sw[:cap(st.sw)])
	clear(st.fill[:cap(st.fill)])
	clear(st.peer[:cap(st.peer)])
	clear(st.rxBuf[:cap(st.rxBuf)])
	clear(st.r0Buf[:cap(st.r0Buf)])
	st.rootIn = nil
	for _, t := range st.tabs {
		t.tab.Reset(nil)
	}
	st.ntab = 0
}

// peersAt returns node n's per-local-rank peer counters (slot 0 unused).
func (st *treeBcastState) peersAt(n int) []*sim.Counter {
	return st.peer[n*st.ppn : (n+1)*st.ppn]
}

// treeScratchKey names the tree broadcasts' per-world scratch.
var treeScratchKey = mpi.NewScratchKey("coll.tree")

// treeScratch is what the tree broadcasts keep on a world across calls: the
// in-flight and released broadcast states, every rank's driver record, and
// one dense slab per node role. A node-role slab is indexed by node, and
// only the roles an algorithm uses are ever grown, so a 2^20-rank shaddr
// sweep pays for its roles and nothing else. Every slot is driven by one
// fixed rank (or that rank's helper thread), whose broadcasts run one after
// another, so a slot is never re-armed while it still runs. Slabs only
// grow, like the world's rank slab: a pooled world moving between partitions
// keeps its bound slots, and a slab is replaced only by the first call of a
// run on a larger partition, when none of its slots is running.
type treeScratch struct {
	states recycled[treeBcastState]

	drv  []treeDriver // by rank: every rank's own driver
	pump []masterPump // by node: shmem and DMA masters
	smp  []smpHelper  // by node: SMP helper threads
}

func newTreeScratch() any { return &treeScratch{} }

// SteadyState implements sim.Hasher for the world fingerprint: a broadcast
// in flight at an iteration boundary refuses the capture. Idle capacity
// hashes nothing.
func (sc *treeScratch) SteadyState(f *sim.FP) { sc.states.inFlight(f, "tree broadcast") }

// EndRun implements mpi.RunScratch. The scratch keeps its Go memory across
// runs — states, driver slabs, bound continuations — but drops every counter
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

func (sc *treeScratch) driverOf(r *mpi.Rank) *treeDriver {
	return slot(&sc.drv, r.Rank(), r.Size())
}

func (sc *treeScratch) pumpOf(r *mpi.Rank) *masterPump {
	return slot(&sc.pump, r.NodeID(), r.Machine().Geom.Nodes())
}

func (sc *treeScratch) smpOf(r *mpi.Rank) *smpHelper {
	return slot(&sc.smp, r.NodeID(), r.Machine().Geom.Nodes())
}

// startTreeBcast is every tree broadcast's prologue: take the collective
// sequence number, acquire the shared state with the counters need selects
// (publishing the payload on the root), and arm the rank's driver. It
// returns the scratch the node drivers come from, the state, and the driver.
func startTreeBcast(r *mpi.Rank, buf data.Buf, root int, need treeCounters, done func()) (*treeScratch, *treeBcastState, *treeDriver) {
	seq := r.NextSeq()
	sc := treeScratchOf(r)
	st := acquireTreeBcast(r, sc, seq, root, buf.Len(), need)
	if r.Rank() == root {
		st.src = buf
		if st.rootWait {
			st.rootIn.Fire()
		}
	}
	d := sc.driverOf(r)
	if d.fn == nil {
		d.fn = d.step
	}
	d.r, d.st, d.buf, d.done = r, st, buf, done
	return sc, st, d
}

// treeDriver is one rank's driver of its tree broadcasts. A rank uses its
// parts one after another within a call — the shaddr copy processes' window
// prologue, the chunk loop the rank's own process runs, and the completion
// step every algorithm ends with — so one record with one bound
// continuation, step, serves them all, and phase names the part step runs
// next. Setting phase and handing out fn are one act (then): a process has
// at most one continuation pending, so no later part overwrites it early.
type treeDriver struct {
	r    *mpi.Rank
	st   *treeBcastState
	buf  data.Buf
	done func()
	tab  *sim.Table // tree.shaddr's chunk loop, kept across its window prologue
	fn   func()     // bound step

	phase  uint8
	mapInj bool // the window prologue also maps the injector's buffer
}

// Driver phases: what treeDriver.step runs next.
const (
	drvFinish  uint8 = iota // install the payload, release the state, continue with done
	drvRun                  // run tree.shaddr's chunk loop, then finish
	drvMapRx                // map the reception rank's buffer, then the injector's or run
	drvMapInj               // map the injector's buffer, then run
	drvMapRoot              // map the root's buffer, then run
	drvPump                 // node master: start the pump, then finish
	drvJoin                 // SMP main thread: wait for the helper thread, then finish
)

// then returns the bound step, set to run phase next.
func (d *treeDriver) then(phase uint8) func() {
	d.phase = phase
	return d.fn
}

// run runs the rank's chunk loop tab, then finishes: c0, c1 and bus are
// the operands tab leaves open, nil where it has none. The process's plan
// copies them, so the driver keeps no binding.
//
//bgplint:hot
func (d *treeDriver) run(tab *sim.Table, c0, c1 *sim.Counter, bus *sim.Pipe) {
	b := sim.Binding{Table: tab, Counters: [2]*sim.Counter{c0, c1}, Pipe: bus}
	d.r.Proc().RunThen(&b, d.then(drvFinish))
}

// runShaddr runs tree.shaddr's chunk loop d.tab with the node's operands.
// Every shaddr table reads the node's sw as bound counter 0, its fill as
// bound counter 1 and its bus, and a role's table has no step for the
// operands it does not use, so one set serves every role.
//
//bgplint:hot
func (d *treeDriver) runShaddr() {
	n := d.r.NodeID()
	d.run(d.tab, d.st.sw[n], d.st.fill[n], d.r.Node().HW.Bus)
}

// step is the driver's one continuation.
//
//bgplint:hot
func (d *treeDriver) step() {
	switch d.phase {
	case drvRun:
		d.runShaddr()
	case drvMapRx:
		next := drvRun
		if d.mapInj {
			next = drvMapInj
		}
		d.mapWindow(1, d.st.rxBuf[d.r.NodeID()], next)
	case drvMapInj:
		d.mapWindow(0, d.st.r0Buf[d.r.NodeID()], drvRun)
	case drvMapRoot:
		d.mapWindow(d.st.root%d.st.ppn, d.st.src, drvRun)
	case drvPump:
		d.phase = drvFinish // the pump continues with d.fn when it is done
		d.st.sc.pumpOf(d.r).inject()
	case drvJoin:
		d.r.Proc().WaitGEThen(d.st.sc.smpOf(d.r).helperDone, 1, d.then(drvFinish))
	default:
		d.finish()
	}
}

// finish runs once per rank per broadcast. The record is cleared before
// done runs: done may start this rank's next broadcast, which re-arms it.
//
//bgplint:hot
func (d *treeDriver) finish() {
	r, st, done := d.r, d.st, d.done
	if r.Rank() != st.root {
		installPayload(d.buf, st.src)
	}
	d.st, d.buf, d.done = nil, data.Buf{}, nil
	st.release()
	done()
}

// The linear chunk loops below — injection, reception, and the peers'
// copies — run from step tables (sim.Table) rather than per-chunk
// continuations. A table transcribes one role's whole loop, every chunk's
// wait, costs and signals, and is built once per call by the first rank in
// the role; every rank in the role runs it through its own binding, which
// supplies the node-local counters and bus. Each step pushes its successor
// at the (time, seq) position the per-chunk continuation used, so the
// dispatched entries and every virtual time are those of the per-chunk
// loops. Waits on counters several ranks share (the node's sw, the root's
// among them) stay one wait per chunk: waiter ties release in registration
// order.

// chunkSpec selects the steps of one role's table. Per chunk they run in the
// order below: one wait, the core's costs, then its signals.
type chunkSpec uint16

const (
	ckWaitWindow   chunkSpec = 1 << iota // wait for chunk i-injectWindow's delivery: injection back-pressure
	ckWaitDelivery                       // wait for the chunk's delivery
	ckWaitBytes                          // wait until bound counter 0 holds every byte up to the chunk's end
	ckTouch                              // the core's packet-touch, injecting or receiving
	ckPoll                               // the poll latency of seeing another core's counter
	ckPublish                            // add the chunk's bytes to bound counter 0
	ckCopy                               // copy the chunk into the rank's own buffer
	ckFill                               // copy it into the injector's buffer, then add its bytes to bound counter 1
	ckInject                             // inject the chunk (the table's post step, treeBcastState.RunPost)
	ckJoinFill                           // after the last chunk, wait until bound counter 1 holds the whole payload
)

// chunkTable is one of a state's tables and the spec it was built from.
type chunkTable struct {
	spec chunkSpec
	tab  sim.Table
}

// table returns this call's table for spec, building it for the first rank
// to ask. node supplies the poll and copy costs, which every node shares;
// cached is the call's cache state, the same on every rank.
func (st *treeBcastState) table(spec chunkSpec, node *hw.Node, cached bool) *sim.Table {
	for _, ct := range st.tabs[:st.ntab] {
		if ct.spec == spec {
			return &ct.tab
		}
	}
	if st.ntab == len(st.tabs) {
		st.tabs = append(st.tabs, new(chunkTable))
	}
	ct := st.tabs[st.ntab]
	st.ntab++
	ct.spec = spec
	t := &ct.tab
	t.Reset(st)
	var got int64
	for i, span := range st.spans {
		n := int64(span.Len)
		got += n
		switch {
		case spec&ckWaitWindow != 0:
			if i >= injectWindow {
				t.WaitGE(st.ops[i-injectWindow].Delivered(), 1)
			}
		case spec&ckWaitDelivery != 0:
			t.WaitGE(st.ops[i].Delivered(), 1)
		case spec&ckWaitBytes != 0:
			t.WaitBound(0, got)
		}
		if spec&ckTouch != 0 {
			t.Sleep(st.touch[i])
		}
		if spec&ckPoll != 0 {
			node.TablePoll(t)
		}
		if spec&ckPublish != 0 {
			t.AddBound(0, n)
		}
		if spec&ckCopy != 0 {
			node.TableCopy(t, span.Len, cached)
		}
		if spec&ckFill != 0 {
			node.TableCopy(t, span.Len, cached)
			t.AddBound(1, n)
		}
		if spec&ckInject != 0 {
			t.Post(int64(i))
		}
	}
	if spec&ckJoinFill != 0 {
		t.WaitBound(1, got)
	}
	return t
}

// RunPost implements sim.PostHandler for the injection tables' post steps:
// this node's contribution to chunk's combine.
//
//bgplint:hot
func (st *treeBcastState) RunPost(chunk, _ int64) { st.ops[chunk].Inject() }

// peerSpec is the table of a peer that waits for its node's bytes on bound
// counter 0 and, unless it is the root, which already holds the payload,
// pays copy per chunk.
func peerSpec(isRoot bool, copy chunkSpec) chunkSpec {
	if isRoot {
		return ckWaitBytes
	}
	return ckWaitBytes | copy
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
	recvFn        func()
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
		m.afterInjectFn, m.recvFn = m.afterInject, m.recv
		m.enterRecvFn, m.afterRecvFn = m.enterRecv, m.afterRecv
	}
	m.st, m.p, m.cont = st, r.Proc(), cont
	m.injIdx, m.recvIdx, m.phase = 0, 0, pumpDrain
	return m
}

// start begins the pump's injection, once the root has entered if the pump
// injects its payload for it (waitsForRoot). The wait resumes through d,
// the master rank's driver (drvPump), whose bound step is also the pump's
// continuation.
func (m *masterPump) start(d *treeDriver) {
	if m.st.waitsForRoot(d.r) {
		m.p.WaitGEThen(m.st.rootIn, 1, d.then(drvPump))
		return
	}
	m.inject()
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
		m.recv()
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

// recvBlocked parks behind a not-yet-delivered chunk, then receives it.
//
//bgplint:hot
func (m *masterPump) recvBlocked() {
	m.p.WaitGEThen(m.st.ops[m.recvIdx].Delivered(), 1, m.recvFn)
}

// recv pays the delivered chunk's reception packet-touch on the pumping
// core, then hands the chunk on.
//
//bgplint:hot
func (m *masterPump) recv() { m.p.SleepThen(m.st.touch[m.recvIdx], m.enterRecvFn) }

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

// smpHelper drives one SMP-mode node's helper communication thread, which
// receives while the main thread injects: the table its chunk loop runs,
// and the one-shot completion counter the main thread joins on, which the
// slot re-arms on every broadcast of a run.
type smpHelper struct {
	tab        *sim.Table
	helperDone *sim.Counter

	spawnFn func(p *sim.Proc)
	fireFn  func()
}

// bcastTreeSMP is the current SMP-mode algorithm (paper §V-B): the main
// thread injects while a helper communication thread receives, together
// saturating the collective network.
func bcastTreeSMP(r *mpi.Rank, buf data.Buf, root int, done func()) {
	sc, st, d := startTreeBcast(r, buf, root, 0, done)
	h := sc.smpOf(r)
	if h.spawnFn == nil {
		h.spawnFn, h.fireFn = h.spawnHelper, h.fire
	}
	k := r.Machine().K
	node := r.Node().HW
	h.helperDone = rearm(k, h.helperDone, "treebc%d.helper%d", int32(st.seq), int32(r.Rank()))
	h.tab = st.table(ckWaitDelivery|ckTouch, node, false)
	k.SpawnProgramIdx("rank%d.comm", int32(r.Rank()), h.spawnFn)
	b := sim.Binding{Table: st.table(ckWaitWindow|ckTouch|ckInject, node, false)}
	r.Proc().RunThen(&b, d.then(drvJoin))
}

// spawnHelper is the helper thread's body: receive every chunk.
func (h *smpHelper) spawnHelper(p *sim.Proc) {
	b := sim.Binding{Table: h.tab}
	p.RunThen(&b, h.fireFn)
}

//bgplint:hot
func (h *smpHelper) fire() { h.helperDone.Fire() }

// bcastTreeShmem is the quad-mode latency algorithm (paper §V-B): the master
// core injects and receives into a shared-memory segment, serialized on one
// core; peers copy the data out of the segment.
func bcastTreeShmem(r *mpi.Rank, buf data.Buf, root int, done func()) {
	sc, st, d := startTreeBcast(r, buf, root, needSW, done)
	node := r.NodeID()
	cached := quadBcastFootprint(r, buf.Len())

	if r.IsNodeMaster() {
		m := armPump(sc, r, st, d.then(drvFinish))
		m.sw, m.node, m.copyOut, m.cached = st.sw[node], r.Node().HW, r.Rank() != root, cached
		m.dma, m.k, m.peers, m.perChunk = nil, nil, nil, false
		m.start(d)
		return
	}
	// Peers wait on the node's software counter, poll, and copy each
	// arrived chunk out of the segment.
	hwn := r.Node().HW
	tab := st.table(peerSpec(r.Rank() == root, ckPoll|ckCopy), hwn, cached)
	d.run(tab, st.sw[node], nil, hwn.Bus)
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
	sc, st, d := startTreeBcast(r, buf, root, needPeers, done)
	node := r.NodeID()

	if r.IsNodeMaster() {
		m := armPump(sc, r, st, d.then(drvFinish))
		m.sw, m.node, m.copyOut, m.cached = nil, nil, false, false
		m.dma, m.k, m.peers, m.perChunk = r.Node().DMA, r.Machine().K, st.peersAt(node), fifo
		m.start(d)
		return
	}
	cnt := st.peersAt(node)[r.LocalRank()]
	if !fifo {
		// The DMA puts straight into the application buffer: nothing to do
		// until the whole payload has landed.
		r.Proc().WaitGEThen(cnt, int64(buf.Len()), d.then(drvFinish))
		return
	}
	// A FIFO peer waits on its DMA progress counter for each chunk and pays
	// the core copy from the memory FIFO into its application buffer.
	hwn := r.Node().HW
	tab := st.table(peerSpec(r.Rank() == root, ckCopy), hwn, quadBcastFootprint(r, buf.Len()))
	d.run(tab, cnt, nil, hwn.Bus)
}

// bcastTreeShaddr is the proposed quad-mode algorithm (paper §V-B, Fig. 4):
// core specialization over shared address space. Local rank 0 injects
// (payload at the root, zeros elsewhere), local rank 1 receives directly
// into its application buffer and publishes a software counter, ranks 2 and
// 3 copy through process windows, and rank 2 additionally fills rank 0's
// buffer — the injector has no cycles to copy, and memory bandwidth is at
// least twice the collective network's.
func bcastTreeShaddr(r *mpi.Rank, buf data.Buf, root int, done func()) {
	_, st, d := startTreeBcast(r, buf, root, needSW|needFill|needWindows, done)
	node := r.NodeID()
	hwn := r.Node().HW
	total := buf.Len()
	cached := quadBcastFootprint(r, total)
	isRoot := r.Rank() == root
	// The injector's buffer needs filling unless the injector is the root.
	fillInjector := r.RankOf(node, 0) != root

	switch r.LocalRank() {
	case 0: // injection process
		st.r0Buf[node] = buf
		spec := ckWaitWindow | ckTouch | ckInject
		if !isRoot {
			spec |= ckJoinFill // then wait for rank 2 to fill this buffer
		}
		d.tab = st.table(spec, hwn, cached)
		if st.waitsForRoot(r) {
			// Inject the payload out of the root rank's buffer through a
			// process window, once the root has entered with it.
			r.Proc().WaitGEThen(st.rootIn, 1, d.then(drvMapRoot))
			return
		}
		d.runShaddr()

	case 1: // reception process: directly into its application buffer
		st.rxBuf[node] = buf
		if r.LocalSize() == 2 {
			// Dual mode has no dedicated copy processes: the reception
			// process also fills the injector's buffer.
			spec := ckWaitDelivery | ckTouch | ckPublish
			if fillInjector {
				spec |= ckFill
			}
			d.tab = st.table(spec, hwn, cached)
			if fillInjector {
				r.CNK().MapThen(r.Proc(), windowKey(0, st.r0Buf[node]), total, d.then(drvRun))
				return
			}
			d.runShaddr()
			return
		}
		d.tab = st.table(ckWaitDelivery|ckTouch|ckPublish, hwn, cached)
		d.runShaddr()

	case 2: // copy process, also responsible for the injector's buffer
		spec := peerSpec(isRoot, ckCopy) | ckPoll
		if fillInjector {
			spec |= ckFill
		}
		d.tab = st.table(spec, hwn, cached)
		d.openWindow(fillInjector)

	case 3: // copy process
		d.tab = st.table(peerSpec(isRoot, ckPoll|ckCopy), hwn, cached)
		d.openWindow(false)
	}
}

// openWindow is the shaddr copy processes' prologue: wait for the reception
// rank's first published chunk — which also says that rank has arrived and
// registered its buffer — map that buffer through a process window, and
// for rank 2, when the injector is not the root (mapInj), the injector's
// buffer too, then run the chunk loop.
func (d *treeDriver) openWindow(mapInj bool) {
	d.mapInj = mapInj
	d.r.Proc().WaitGEThen(d.st.sw[d.r.NodeID()], 1, d.then(drvMapRx))
}

// mapWindow maps local rank lrank's buffer b, the whole payload, then
// continues with phase next.
//
//bgplint:hot
func (d *treeDriver) mapWindow(lrank int, b data.Buf, next uint8) {
	d.r.CNK().MapThen(d.r.Proc(), windowKey(lrank, b), d.buf.Len(), d.then(next))
}
