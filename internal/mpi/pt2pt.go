package mpi

import (
	"fmt"

	"bgpcoll/internal/data"
	"bgpcoll/internal/sim"
)

// Point-to-point messaging over the torus DMA, the substrate role DCMF plays
// on the real machine. Two protocols, selected by Tunables.EagerLimit:
//
//   - Eager: the payload is injected immediately and lands in the receiver's
//     memory FIFO; the receiving core copies it into the application buffer
//     when the receive is matched.
//   - Rendezvous: a request-to-send control message travels first; once the
//     receive is posted, the payload is moved by DMA direct put straight
//     into the application buffer, with no core copy.
//
// Intra-node messages skip the torus and are copied by the receiving core
// through shared memory.
//
// The network side of a transfer is driven by the DMA engine and needs no
// core, so Isend and Irecv issue their reservations event-driven and return
// a Request immediately. Core-side costs — the receiving core's copy-out for
// eager and intra-node messages — are charged when the owning rank waits on
// the request, which is where the MPI progress engine performs them on the
// real machine. Isend/Irecv plus WaitThen is the only transcription of both
// protocols: Send, Recv and Sendrecv and their blocking forms are derived
// from it.

const ctrlBytes = 32 // control packet payload (RTS/CTS)

// ptpLane is the torus link lane used by point-to-point payload traffic
// (distinct from the collective color lanes 0..11).
const ptpLane = 12

// ctrlLane carries RTS/CTS control packets. On the real machine control
// packets interleave with bulk data at packet granularity (the torus
// multiplexes virtual channels); a separate lane approximates that a 32-byte
// control packet never waits behind a megabyte transfer.
const ctrlLane = 13

type matchKey struct {
	src, tag int
}

type mailbox struct {
	arrived map[matchKey][]*arrival
	posted  map[matchKey][]*recvReq
}

func newMailbox() *mailbox {
	return &mailbox{
		arrived: make(map[matchKey][]*arrival),
		posted:  make(map[matchKey][]*recvReq),
	}
}

type arrival struct {
	buf         data.Buf // sender-side payload view
	availableAt sim.Time
	rdv         *rendezvous // non-nil: this is a rendezvous RTS
	local       bool        // sender is on the same node
}

type recvReq struct {
	ev  *sim.Counter // one-shot: fired when a message matches
	arr *arrival
}

type rendezvous struct {
	src     *Rank
	cts     *sim.Counter // one-shot: receiver posted; carries dst buffer
	putDone *sim.Counter // one-shot
	dstBuf  data.Buf
}

// box returns the rank's mailbox, materializing it on first touch: ranks
// that never exchange point-to-point messages (most of a rack-scale
// collective-only job) never pay for the match maps.
func (r *Rank) box() *mailbox {
	if r.inbox == nil {
		r.inbox = newMailbox()
	}
	return r.inbox
}

// deliver hands an arrival to the destination rank's mailbox, matching a
// posted receive if one exists.
func (r *Rank) deliver(src, tag int, arr *arrival) {
	key := matchKey{src: src, tag: tag}
	box := r.box()
	if reqs := box.posted[key]; len(reqs) > 0 {
		req := reqs[0]
		box.posted[key] = reqs[1:]
		req.arr = arr
		req.ev.Fire()
		return
	}
	box.arrived[key] = append(box.arrived[key], arr)
}

// Request tracks one outstanding nonblocking operation. It completes when
// its one-shot counter fires; waiting on it additionally runs the deferred
// core-side work in the waiting rank's own context.
type Request struct {
	owner *Rank
	ev    *sim.Counter

	// Receive side: buf is the posted buffer and msgLen the size of the
	// message matched to it. copyOut marks an eager or intra-node payload
	// the waiting core still has to copy out (sends and rendezvous
	// receives are completed by the DMA); local marks an intra-node one.
	buf     data.Buf
	msgLen  int
	payload data.Buf
	copyOut bool
	local   bool
}

// Wait blocks the owning rank until the operation completes.
func (q *Request) Wait() { q.WaitThen(nop) }

// WaitThen continues with done once the operation has completed on the
// owning rank, including the receiving core's copy-out. A receive whose
// buffer does not match the message size fails here, in the receiving
// rank's context, whichever protocol carried the message.
func (q *Request) WaitThen(done func()) {
	q.owner.proc.WaitGEThen(q.ev, 1, func() { q.complete(done) })
}

// complete runs the core-side completion work of a fired request.
func (q *Request) complete(done func()) {
	if q.buf.Len() != q.msgLen {
		panic(fmt.Sprintf("mpi: recv buffer %d bytes, message %d bytes", q.buf.Len(), q.msgLen))
	}
	if !q.copyOut {
		done()
		return
	}
	q.copyOut = false
	if q.local {
		q.owner.node.HW.PollThen(q.owner.proc, func() { q.copyThen(done) })
		return
	}
	q.copyThen(done)
}

// copyThen copies the payload out with the owning rank's core.
func (q *Request) copyThen(done func()) {
	hw, n := q.owner.node.HW, q.buf.Len()
	hw.CopyThen(q.owner.proc, n, hw.Cached(2*n), func() {
		data.Copy(q.buf, q.payload)
		done()
	})
}

// Done reports whether the operation has completed (waiting may still have
// deferred completion work to run).
func (q *Request) Done() bool { return q.ev.Fired() }

// WaitAll completes a set of requests.
func (r *Rank) WaitAll(reqs ...*Request) { r.WaitAllThen(reqs, nop) }

// WaitAllThen completes reqs in order, then continues with done.
func (r *Rank) WaitAllThen(reqs []*Request, done func()) {
	for _, q := range reqs {
		if q.owner != r {
			panic("mpi: WaitAll on another rank's request")
		}
	}
	a := &waitAll{reqs: reqs, done: done}
	a.nextFn = a.next
	a.next()
}

// waitAll steps through a request list, one bound continuation per call.
type waitAll struct {
	reqs   []*Request
	i      int
	done   func()
	nextFn func()
}

func (a *waitAll) next() {
	if a.i == len(a.reqs) {
		a.done()
		return
	}
	q := a.reqs[a.i]
	a.i++
	q.WaitThen(a.nextFn)
}

// Send transmits buf to global rank dst with the given tag. Eager sends
// return once the payload is injected; rendezvous sends return when the
// direct put has completed.
func (r *Rank) Send(dst int, buf data.Buf, tag int) { r.SendThen(dst, buf, tag, nop) }

// SendThen is the explicit-resume form of Send.
func (r *Rank) SendThen(dst int, buf data.Buf, tag int, done func()) {
	r.Isend(dst, buf, tag).WaitThen(done)
}

// Recv receives a message from global rank src with the given tag into buf,
// blocking until the payload is in place.
func (r *Rank) Recv(src int, buf data.Buf, tag int) { r.RecvThen(src, buf, tag, nop) }

// RecvThen is the explicit-resume form of Recv.
func (r *Rank) RecvThen(src int, buf data.Buf, tag int, done func()) {
	r.Irecv(src, buf, tag).WaitThen(done)
}

// Sendrecv exchanges messages with two (possibly different) peers without
// deadlock: both transfers progress concurrently, as MPI_Sendrecv requires.
func (r *Rank) Sendrecv(dst int, sendBuf data.Buf, sendTag int, src int, recvBuf data.Buf, recvTag int) {
	r.SendrecvThen(dst, sendBuf, sendTag, src, recvBuf, recvTag, nop)
}

// SendrecvThen is the explicit-resume form of Sendrecv.
func (r *Rank) SendrecvThen(dst int, sendBuf data.Buf, sendTag int, src int, recvBuf data.Buf, recvTag int, done func()) {
	rq := r.Irecv(src, recvBuf, recvTag)
	sq := r.Isend(dst, sendBuf, sendTag)
	r.WaitAllThen([]*Request{rq, sq}, done)
}

// Isend starts sending buf to dst and returns immediately. The request
// completes when the local buffer may be reused (eager: injected;
// rendezvous: the remote direct put finished).
func (r *Rank) Isend(dst int, buf data.Buf, tag int) *Request {
	if dst == r.id {
		panic("mpi: send to self")
	}
	to := &r.w.ranks[dst]
	k := r.w.M.K
	n := buf.Len()
	req := &Request{owner: r, ev: k.NewCounter(fmt.Sprintf("isend.%d.%d.%d", r.id, dst, tag))}

	if to.nodeID == r.nodeID {
		// Intra-node: publish through shared memory; complete after the
		// flag propagates.
		arr := &arrival{buf: buf, availableAt: k.Now() + r.node.HW.P.PollLatency, local: true}
		k.After(r.node.HW.P.PollLatency, func() {
			to.deliver(r.id, tag, arr)
			req.ev.Fire()
		})
		return req
	}

	if n <= r.w.Tunables.EagerLimit {
		wire := r.w.M.Torus.WireBytes(n)
		injDone := r.node.DMA.Inject(k.Now(), wire)
		netAt := r.w.M.Torus.Unicast(injDone, r.Coord(), to.Coord(), ptpLane, n)
		// The destination engine is charged at arrival time so its
		// reservations stay in virtual-time order.
		k.At(netAt, func() {
			rxDone := to.node.DMA.Receive(k.Now(), wire)
			arr := &arrival{buf: buf, availableAt: rxDone}
			k.At(rxDone, func() { to.deliver(r.id, tag, arr) })
		})
		k.At(injDone, req.ev.Fire)
		return req
	}

	// Rendezvous, event-driven: RTS now; once the receiver posts (CTS), the
	// DMA direct put is reserved and both sides complete at its end.
	rdv := &rendezvous{
		src:     r,
		cts:     k.NewCounter(fmt.Sprintf("icts.%d.%d", r.id, dst)),
		putDone: k.NewCounter(fmt.Sprintf("iput.%d.%d", r.id, dst)),
	}
	rtsAt := r.w.M.Torus.Unicast(k.Now(), r.Coord(), to.Coord(), ctrlLane, ctrlBytes)
	k.At(rtsAt, func() {
		to.deliver(r.id, tag, &arrival{buf: buf, availableAt: rtsAt, rdv: rdv})
	})
	rdv.cts.OnGE(1, func() {
		wire := r.w.M.Torus.WireBytes(n)
		injDone := r.node.DMA.Inject(k.Now(), wire)
		netAt := r.w.M.Torus.Unicast(injDone, r.Coord(), to.Coord(), ptpLane, n)
		dst2 := rdv.dstBuf
		k.At(netAt, func() {
			rxDone := to.node.DMA.Receive(k.Now(), wire)
			k.At(rxDone, func() {
				// A wrong-size receive buffer gets no bytes; the receiver's
				// wait reports the mismatch.
				if dst2.Len() == buf.Len() {
					data.Copy(dst2, buf)
				}
				rdv.putDone.Fire()
			})
		})
	})
	rdv.putDone.OnGE(1, req.ev.Fire)
	return req
}

// Irecv starts receiving a message from src with the given tag into buf and
// returns immediately. The receiving core's copy (eager and intra-node
// paths) is charged when the request is waited on.
func (r *Rank) Irecv(src int, buf data.Buf, tag int) *Request {
	k := r.w.M.K
	req := &Request{owner: r, ev: k.NewCounter(fmt.Sprintf("irecv.%d.%d.%d", r.id, src, tag)), buf: buf}

	handle := func(arr *arrival) {
		req.msgLen = arr.buf.Len()
		if arr.rdv != nil {
			rdv := arr.rdv
			rdv.dstBuf = buf
			ctsAt := r.w.M.Torus.Unicast(k.Now(), r.Coord(), rdv.src.Coord(), ctrlLane, ctrlBytes)
			k.At(ctsAt, rdv.cts.Fire)
			rdv.putDone.OnGE(1, req.ev.Fire)
			return
		}
		req.payload, req.copyOut, req.local = arr.buf, true, arr.local
		if arr.availableAt > k.Now() {
			k.At(arr.availableAt, req.ev.Fire)
		} else {
			req.ev.Fire()
		}
	}

	// Match an already-arrived message or register an event-driven posted
	// receive.
	key := matchKey{src: src, tag: tag}
	box := r.box()
	if arrs := box.arrived[key]; len(arrs) > 0 {
		arr := arrs[0]
		box.arrived[key] = arrs[1:]
		handle(arr)
		return req
	}
	pr := &recvReq{ev: k.NewCounter(fmt.Sprintf("ipost.%d.%d.%d", r.id, src, tag))}
	box.posted[key] = append(box.posted[key], pr)
	pr.ev.OnGE(1, func() { handle(pr.arr) })
	return req
}

// nop is the continuation that turns an explicit-resume operation into its
// blocking form: on a goroutine-backed rank every *Then operation blocks
// before calling its continuation.
func nop() {}
