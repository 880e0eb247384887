package mpi

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

func newWorld(t *testing.T, cfg hw.Config) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func smallConfig() hw.Config {
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: 2, DY: 2, DZ: 1}
	return cfg
}

func TestWorldLayout(t *testing.T) {
	w := newWorld(t, smallConfig())
	if w.Size() != 16 {
		t.Fatalf("size = %d, want 16", w.Size())
	}
	r5 := w.Rank(5)
	if r5.NodeID() != 1 || r5.LocalRank() != 1 {
		t.Fatalf("rank 5: node %d lrank %d", r5.NodeID(), r5.LocalRank())
	}
	if !w.Rank(4).IsNodeMaster() {
		t.Fatal("rank 4 should be node master")
	}
	if got := r5.RankOf(1, 1); got != 5 {
		t.Fatalf("RankOf = %d", got)
	}
}

func TestRunAllRanks(t *testing.T) {
	w := newWorld(t, smallConfig())
	ran := make([]bool, w.Size())
	if _, err := w.Run(func(r *Rank) { ran[r.Rank()] = true }); err != nil {
		t.Fatal(err)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("rank %d did not run", i)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newWorld(t, smallConfig())
	var exitTimes []sim.Time
	_, err := w.Run(func(r *Rank) {
		r.Proc().SleepThen(sim.Time(r.Rank())*sim.Microsecond, nop) // staggered arrival
		r.Barrier()
		exitTimes = append(exitTimes, r.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	last := sim.Time(15) * sim.Microsecond
	want := last + w.M.Cfg.Params.BarrierLatency
	for _, et := range exitTimes {
		if et != want {
			t.Fatalf("barrier exit at %v, want %v", et, want)
		}
	}
}

func TestBarrierRepeats(t *testing.T) {
	w := newWorld(t, smallConfig())
	if _, err := w.Run(func(r *Rank) {
		for i := 0; i < 5; i++ {
			r.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if s := w.scratch; s == nil || len(s.barriers) != 0 {
		t.Fatal("barrier states leaked")
	}
}

func TestEagerSendRecv(t *testing.T) {
	w := newWorld(t, smallConfig())
	const n = 1024 // below eager limit
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := r.NewBuf(n)
			buf.Fill(7)
			r.Send(12, buf, 42) // cross-node
		case 12:
			buf := r.NewBuf(n)
			r.Recv(0, buf, 42)
			want := data.New(n, true)
			want.Fill(7)
			if !data.Equal(buf, want) {
				t.Error("eager payload corrupted")
			}
			if r.Now() == 0 {
				t.Error("eager recv consumed no time")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousSendRecv(t *testing.T) {
	w := newWorld(t, smallConfig())
	const n = 256 << 10 // above eager limit
	var sendDone, recvDone sim.Time
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := r.NewBuf(n)
			buf.Fill(9)
			r.Send(12, buf, 1)
			sendDone = r.Now()
		case 12:
			buf := r.NewBuf(n)
			r.Recv(0, buf, 1)
			recvDone = r.Now()
			want := data.New(n, true)
			want.Fill(9)
			if !data.Equal(buf, want) {
				t.Error("rendezvous payload corrupted")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rendezvous completes both sides at the put completion.
	if sendDone != recvDone {
		t.Fatalf("send done %v != recv done %v", sendDone, recvDone)
	}
	// Sanity: transfer cannot beat one link.
	minTime := sim.TransferTime(n, w.M.Cfg.Params.TorusLinkBps)
	if recvDone < minTime {
		t.Fatalf("rendezvous %v faster than link %v", recvDone, minTime)
	}
}

func TestIntraNodeSendRecv(t *testing.T) {
	w := newWorld(t, smallConfig())
	const n = 32 << 10
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 1:
			buf := r.NewBuf(n)
			buf.Fill(3)
			r.Send(2, buf, 0) // same node (node 0 holds ranks 0..3)
		case 2:
			buf := r.NewBuf(n)
			r.Recv(1, buf, 0)
			want := data.New(n, true)
			want.Fill(3)
			if !data.Equal(buf, want) {
				t.Error("intra-node payload corrupted")
			}
			// Should cost roughly one core copy, far below a torus trip.
			copyTime := w.M.Nodes[0].HW.CopyTime(n, true)
			if r.Now() > 3*copyTime {
				t.Errorf("intra-node recv took %v, want about %v", r.Now(), copyTime)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			buf := r.NewBuf(64)
			r.Recv(4, buf, 5) // posted before the send happens
		case 4:
			r.Proc().SleepThen(10*sim.Microsecond, nop)
			r.Send(0, r.NewBuf(64), 5)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameKey(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			for i := 0; i < 4; i++ {
				buf := r.NewBuf(8)
				if buf.IsReal() {
					buf.Bytes()[0] = byte(i)
				}
				r.Send(4, buf, 9)
			}
		case 4:
			for i := 0; i < 4; i++ {
				buf := r.NewBuf(8)
				r.Recv(0, buf, 9)
				if buf.IsReal() && buf.Bytes()[0] != byte(i) {
					t.Errorf("message %d received out of order (%d)", i, buf.Bytes()[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMismatchedTagDeadlocks(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Recv(4, r.NewBuf(8), 123) // never sent
		}
	})
	if err == nil {
		t.Fatal("unmatched recv did not deadlock")
	}
}

func TestSendToSelfPanics(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(0, r.NewBuf(8), 0)
		}
	})
	if err == nil {
		t.Fatal("send-to-self not rejected")
	}
}

func TestAutoBcastSelection(t *testing.T) {
	w := newWorld(t, smallConfig())
	r := w.Rank(0)
	if got := r.autoBcast(1 << 10); got != BcastTreeShmem {
		t.Errorf("1K -> %s", got)
	}
	if got := r.autoBcast(64 << 10); got != BcastTreeShaddr {
		t.Errorf("64K -> %s", got)
	}
	if got := r.autoBcast(1 << 20); got != BcastTorusShaddr {
		t.Errorf("1M -> %s", got)
	}
	cfg := smallConfig()
	cfg.Mode = hw.SMP
	cfg.Functional = false
	ws := newWorld(t, cfg)
	if got := ws.Rank(0).autoBcast(1 << 10); got != BcastTreeSMP {
		t.Errorf("SMP 1K -> %s", got)
	}
	if got := ws.Rank(0).autoBcast(1 << 20); got != BcastTorusDirectPut {
		t.Errorf("SMP 1M -> %s", got)
	}
}

// TestWorldSizeClass pins World at 144 bytes, one allocation size class:
// per-world state belongs behind the lazily allocated scratch pointer.
func TestWorldSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(World{}); got > 144 {
		t.Fatalf("World is %d bytes, want at most 144", got)
	}
}

// TestResolvedDispatchFollowsRegistry checks a world's resolved broadcast
// dispatch follows the Tunables name and picks up a re-registration under
// a name it has already resolved.
func TestResolvedDispatchFollowsRegistry(t *testing.T) {
	var calls []string
	body := func(tag string) ProgBcastFn {
		return func(r *Rank, buf data.Buf, root int, done func()) {
			if r.Rank() == 0 {
				calls = append(calls, tag)
			}
			done()
		}
	}
	RegisterProgBcast("test.a", body("a"))
	RegisterProgBcast("test.b", body("b1"))
	w := newWorld(t, smallConfig())
	bcast := func(name string) {
		t.Helper()
		w.Tunables.Bcast = name
		if _, err := w.RunProgram(func(r *Rank) { r.BcastThen(data.Buf{}, 0, nop) }); err != nil {
			t.Fatal(err)
		}
		w.Reset()
	}
	bcast("test.a")
	bcast("test.b")
	RegisterProgBcast("test.b", body("b2"))
	bcast("test.b")
	if got, want := strings.Join(calls, " "), "a b1 b2"; got != want {
		t.Fatalf("dispatched %q, want %q", got, want)
	}
}

// TestRootedCollectiveRejectsBadRoot: a root outside [0, Size()) fails the
// run with an error that names the root and the size, not with a deadlock
// report of every rank waiting for a rank that does not exist.
func TestRootedCollectiveRejectsBadRoot(t *testing.T) {
	ops := []struct {
		name string
		run  func(r *Rank, buf data.Buf, root int)
	}{
		{"bcast", func(r *Rank, buf data.Buf, root int) { r.Bcast(buf, root) }},
		{"gather", func(r *Rank, buf data.Buf, root int) { r.Gather(buf, buf, root) }},
		{"reduce", func(r *Rank, buf data.Buf, root int) { r.ReduceSum(buf, buf, root) }},
		{"scatter", func(r *Rank, buf data.Buf, root int) { r.Scatter(buf, buf, root) }},
	}
	for _, op := range ops {
		name := op.name
		for _, root := range []int{99999, -1} {
			w := newWorld(t, smallConfig())
			_, err := w.Run(func(r *Rank) { op.run(r, r.NewBuf(64), root) })
			if err == nil {
				t.Fatalf("%s root %d: run succeeded", name, root)
			}
			msg := err.Error()
			want := fmt.Sprintf("%s root %d outside [0, 16)", name, root)
			if !strings.Contains(msg, want) || strings.Contains(msg, "deadlock") {
				t.Errorf("%s root %d: error %q, want one containing %q and no deadlock", name, root, firstLine(msg), want)
			}
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
