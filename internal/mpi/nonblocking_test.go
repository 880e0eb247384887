package mpi

import (
	"fmt"
	"strings"
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/sim"
)

func TestIsendIrecvEager(t *testing.T) {
	w := newWorld(t, smallConfig())
	const n = 512
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := r.NewBuf(n)
			buf.Fill(11)
			req := r.Isend(8, buf, 3)
			req.Wait()
		case 8:
			buf := r.NewBuf(n)
			req := r.Irecv(0, buf, 3)
			req.Wait()
			want := data.New(n, true)
			want.Fill(11)
			if !data.Equal(buf, want) {
				t.Error("eager isend payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvRendezvous(t *testing.T) {
	w := newWorld(t, smallConfig())
	const n = 128 << 10
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := r.NewBuf(n)
			buf.Fill(13)
			r.Isend(8, buf, 3).Wait()
		case 8:
			buf := r.NewBuf(n)
			r.Irecv(0, buf, 3).Wait()
			want := data.New(n, true)
			want.Fill(13)
			if !data.Equal(buf, want) {
				t.Error("rendezvous isend payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonblockingOverlaps(t *testing.T) {
	// Two large rendezvous transfers in opposite directions must overlap:
	// Sendrecv time << 2x one-way time.
	w := newWorld(t, smallConfig())
	const n = 512 << 10
	var oneWay, exchange sim.Time
	_, err := w.Run(func(r *Rank) {
		if r.Rank() != 0 && r.Rank() != 12 {
			return
		}
		peer := 12 - r.Rank()
		// One-way first.
		start := r.Now()
		if r.Rank() == 0 {
			r.Send(peer, r.NewBuf(n), 1)
		} else {
			r.Recv(peer, r.NewBuf(n), 1)
		}
		r.Barrier2(peer) // see helper below: pairwise sync via message
		if r.Rank() == 0 {
			oneWay = r.Now() - start
		}
		// Now a simultaneous exchange.
		start = r.Now()
		r.Sendrecv(peer, r.NewBuf(n), 2, peer, r.NewBuf(n), 2)
		if r.Rank() == 0 {
			exchange = r.Now() - start
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if exchange <= 0 || oneWay <= 0 {
		t.Fatal("no timing recorded")
	}
	if exchange > oneWay*3/2 {
		t.Fatalf("exchange %v did not overlap (one-way %v)", exchange, oneWay)
	}
}

// Barrier2 synchronizes two ranks with a zero-byte-ish message pair, used
// only by tests (a global Barrier would need every rank's participation).
func (r *Rank) Barrier2(peer int) {
	if r.id < peer {
		r.Send(peer, data.Phantom(8), 999)
		r.Recv(peer, data.Phantom(8), 998)
	} else {
		r.Recv(peer, data.Phantom(8), 999)
		r.Send(peer, data.Phantom(8), 998)
	}
}

func TestSendrecvSelfPair(t *testing.T) {
	// A 2-cycle of Sendrecv between two ranks with rendezvous payloads: the
	// classic deadlock case blocking Send/Recv could not execute.
	w := newWorld(t, smallConfig())
	const n = 256 << 10
	_, err := w.Run(func(r *Rank) {
		if r.Rank() > 1 {
			return
		}
		peer := 1 - r.Rank()
		out := r.NewBuf(n)
		out.Fill(uint64(r.Rank()))
		in := r.NewBuf(n)
		r.Sendrecv(peer, out, 5, peer, in, 5)
		want := data.New(n, true)
		want.Fill(uint64(peer))
		if !data.Equal(in, want) {
			t.Errorf("rank %d exchange corrupted", r.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitAllForeignRequestPanics(t *testing.T) {
	w := newWorld(t, smallConfig())
	reqs := make(chan *Request, 1)
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			reqs <- r.Isend(4, r.NewBuf(8), 1)
		case 1:
			req := <-reqs
			r.WaitAll(req) // not ours: must panic -> simulation error
		case 4:
			r.Recv(0, r.NewBuf(8), 1)
		}
	})
	if err == nil {
		t.Fatal("foreign WaitAll not rejected")
	}
}

func TestIrecvPostedBeforeIsend(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := r.NewBuf(64)
			req := r.Irecv(4, buf, 9)
			req.Wait()
		case 4:
			r.Proc().SleepThen(20*sim.Microsecond, nop)
			r.Isend(0, r.NewBuf(64), 9).Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeIsend(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 1:
			buf := r.NewBuf(1024)
			buf.Fill(3)
			r.Isend(2, buf, 0).Wait()
		case 2:
			buf := r.NewBuf(1024)
			r.Irecv(1, buf, 0).Wait()
			want := data.New(1024, true)
			want.Fill(3)
			if !data.Equal(buf, want) {
				t.Error("intra-node isend corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRequestDoneFlag(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			req := r.Irecv(4, r.NewBuf(64), 1)
			if req.Done() {
				t.Error("request done before any send")
			}
			req.Wait()
			if !req.Done() {
				t.Error("request not done after Wait")
			}
		case 4:
			r.Isend(0, r.NewBuf(64), 1).Wait()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvSizeMismatchFails checks that a receive buffer of the wrong size
// fails the run with an error naming the receiving rank, whichever protocol
// carries the message and whichever receive form posts it — including the
// rendezvous path, whose direct put used to skip the copy silently.
func TestRecvSizeMismatchFails(t *testing.T) {
	forms := []struct {
		name    string
		program bool
		recv    func(r *Rank, src int, buf data.Buf)
	}{
		{"Recv", false, func(r *Rank, src int, buf data.Buf) { r.Recv(src, buf, 1) }},
		{"Irecv+Wait", false, func(r *Rank, src int, buf data.Buf) { r.Irecv(src, buf, 1).Wait() }},
		{"RecvThen", true, func(r *Rank, src int, buf data.Buf) { r.RecvThen(src, buf, 1, func() {}) }},
	}
	for _, proto := range []struct {
		name   string
		src, n int
	}{
		{"eager", 0, 1 << 10},
		{"rendezvous", 0, 64 << 10},
		{"intranode", 13, 1 << 10},
	} {
		for _, form := range forms {
			w := newWorld(t, smallConfig())
			run := w.Run
			if form.program {
				run = w.RunProgram
			}
			_, err := run(func(r *Rank) {
				switch r.Rank() {
				case proto.src:
					r.SendThen(12, r.NewBuf(proto.n), 1, func() {})
				case 12:
					form.recv(r, proto.src, r.NewBuf(proto.n/2))
				}
			})
			want := fmt.Sprintf("process rank12 panicked: mpi: recv buffer %d bytes, message %d bytes", proto.n/2, proto.n)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: err = %v, want %q", proto.name, form.name, err, want)
			}
		}
	}
}
