package dma

import (
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

func newEngine(t *testing.T) (*sim.Kernel, *Engine, hw.Params) {
	t.Helper()
	k := sim.New()
	p := hw.DefaultParams()
	n := hw.NewNode(k, 0, geometry.XYZ(0, 0, 0), p)
	return k, New(k, n), p
}

func TestInjectCost(t *testing.T) {
	_, e, p := newEngine(t)
	done := e.Inject(0, 1<<20)
	want := p.DMAStartup + sim.TransferTime(1<<20, p.DMABps)
	if done != want {
		t.Fatalf("inject done %v, want %v", done, want)
	}
}

func TestEngineSharedBetweenNetworkAndLocal(t *testing.T) {
	// The paper's bottleneck: network reception and local copies queue on
	// the same engine.
	_, e, p := newEngine(t)
	const n = 1 << 20
	rx := e.Receive(0, n)
	local := e.LocalCopy(0, n)
	per := sim.TransferTime(n, p.DMABps)
	if rx != per {
		t.Fatalf("rx done %v, want %v", rx, per)
	}
	// A local copy occupies the engine for read+write (2n) and queues
	// behind the reception.
	if local < 3*per {
		t.Fatalf("local copy did not queue behind reception: %v < %v", local, 3*per)
	}
}

func TestLocalCopyChargesBus(t *testing.T) {
	k := sim.New()
	p := hw.DefaultParams()
	p.BusBps = p.DMABps / 4 // make the bus the bottleneck
	n := hw.NewNode(k, 0, geometry.XYZ(0, 0, 0), p)
	e := New(k, n)
	done := e.LocalCopy(0, 1<<20)
	busTime := sim.TransferTime(2<<20, p.BusBps)
	if done < busTime {
		t.Fatalf("local copy %v faster than bus alone %v", done, busTime)
	}
}

func TestReceiveFromArrivalTime(t *testing.T) {
	_, e, p := newEngine(t)
	at := 5 * sim.Microsecond
	done := e.Receive(at, 4096)
	want := at + sim.TransferTime(4096, p.DMABps)
	if done != want {
		t.Fatalf("receive done %v, want %v", done, want)
	}
}

func TestCounterCompletion(t *testing.T) {
	k, e, _ := newEngine(t)
	c := e.NewCounter("bcast")
	e.CompleteInto(c, 3*sim.Microsecond, 4096)
	e.CompleteInto(c, 7*sim.Microsecond, 4096)
	var sawAt sim.Time
	k.Spawn("poller", func(p *sim.Proc) {
		p.WaitGEThen(c, 8192, func() {})
		sawAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt != 7*sim.Microsecond {
		t.Fatalf("counter reached threshold at %v", sawAt)
	}
}

func TestStats(t *testing.T) {
	_, e, _ := newEngine(t)
	e.Inject(0, 100)
	e.LocalCopy(0, 200)
	bytes, _, n := e.Stats()
	if bytes != 500 || n != 2 {
		t.Fatalf("stats bytes=%d n=%d", bytes, n)
	}
}
