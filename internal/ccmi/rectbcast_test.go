package ccmi

import (
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
	"bgpcoll/internal/sim"
	"bgpcoll/internal/trace"
)

func newMachine(t *testing.T, dx, dy, dz int) *machine.Machine {
	t.Helper()
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: dx, DY: dy, DZ: dz}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runBcast executes a rectangle broadcast and returns per-node buffers and
// deliveries after the simulation drains. Every node's buffer starts as the
// bytewise complement of the source, so a byte no span delivered differs
// from the source.
func runBcast(t *testing.T, m *machine.Machine, root geometry.Coord, msg int, colors []geometry.Color) ([]data.Buf, []*Delivery, data.Buf) {
	t.Helper()
	src := data.New(msg, true)
	src.Fill(12345)
	nodes := m.Geom.Nodes()
	bufs := make([]data.Buf, nodes)
	dels := make([]*Delivery, nodes)
	for i := range bufs {
		bufs[i] = data.New(msg, true)
		for j, c := range src.Bytes() {
			bufs[i].Bytes()[j] = ^c
		}
		dels[i] = NewDelivery(m.K, "del")
	}
	b := &Bcast{M: m, Root: root, Src: src, Bufs: bufs, Deliveries: dels, Colors: colors}
	m.K.At(0, b.Run)
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	return bufs, dels, src
}

// checkCoverage checks that the spans delivered to every node tile
// [0, msg) exactly once: the logged lengths sum to msg, and every non-root
// node's buffer, which started as the source's complement, now equals the
// source, so the spans cover every byte and, summing to msg, overlap nowhere.
func checkCoverage(t *testing.T, m *machine.Machine, root geometry.Coord, bufs []data.Buf, src data.Buf, dels []*Delivery, msg int) {
	t.Helper()
	rootID := m.Geom.NodeID(root)
	for n, d := range dels {
		if got := d.Counter.Value(); got != int64(msg) {
			t.Fatalf("node %d delivered %d bytes, want %d", n, got, msg)
		}
		sum := 0
		for _, l := range d.Lens {
			sum += int(l)
		}
		if sum != msg {
			t.Fatalf("node %d spans cover %d bytes", n, sum)
		}
		if n != rootID && !data.Equal(bufs[n], src) {
			t.Fatalf("node %d: span gap or overlap, buffer differs from the source", n)
		}
	}
}

func TestBcastSpanningTreeCoversOnce(t *testing.T) {
	for _, dims := range [][3]int{{4, 4, 4}, {4, 2, 3}, {2, 2, 2}, {1, 4, 2}, {5, 1, 1}, {1, 1, 1}} {
		m := newMachine(t, dims[0], dims[1], dims[2])
		bufs, dels, src := runBcast(t, m, geometry.XYZ(0, 0, 0), 96<<10, m.Colors())
		checkCoverage(t, m, geometry.XYZ(0, 0, 0), bufs, src, dels, 96<<10)
	}
}

func TestBcastDataIntegrity(t *testing.T) {
	m := newMachine(t, 4, 3, 2)
	bufs, _, src := runBcast(t, m, geometry.XYZ(1, 2, 1), 64<<10, m.Colors())
	rootID := m.Geom.NodeID(geometry.XYZ(1, 2, 1))
	for n, b := range bufs {
		if n == rootID {
			continue
		}
		if !data.Equal(b, src) {
			t.Fatalf("node %d received corrupted data", n)
		}
	}
}

func TestBcastNonCornerRoot(t *testing.T) {
	m := newMachine(t, 4, 4, 2)
	bufs, dels, src := runBcast(t, m, geometry.XYZ(3, 1, 1), 32<<10, m.Colors())
	checkCoverage(t, m, geometry.XYZ(3, 1, 1), bufs, src, dels, 32<<10)
}

func TestBcastSingleColor(t *testing.T) {
	m := newMachine(t, 4, 4, 2)
	bufs, dels, src := runBcast(t, m, geometry.XYZ(0, 0, 0), 48<<10, geometry.Colors(1))
	checkCoverage(t, m, geometry.XYZ(0, 0, 0), bufs, src, dels, 48<<10)
}

func TestBcastThreeColors(t *testing.T) {
	m := newMachine(t, 3, 3, 3)
	bufs, dels, src := runBcast(t, m, geometry.XYZ(2, 2, 2), 30<<10, geometry.Colors(3))
	checkCoverage(t, m, geometry.XYZ(2, 2, 2), bufs, src, dels, 30<<10)
}

func TestBcastTinyMessage(t *testing.T) {
	// Smaller than the color count: some colors carry nothing.
	m := newMachine(t, 2, 2, 2)
	bufs, dels, src := runBcast(t, m, geometry.XYZ(0, 0, 0), 4, m.Colors())
	checkCoverage(t, m, geometry.XYZ(0, 0, 0), bufs, src, dels, 4)
}

func TestBcastRootEgressIsSingleStream(t *testing.T) {
	// The root's DMA must inject each byte exactly once (plus wire
	// overhead): the mirror-patch construction keeps later phases off the
	// root. This is what lets six colors saturate six links.
	m := newMachine(t, 4, 4, 4)
	msg := 96 << 10
	root := geometry.XYZ(0, 0, 0)
	runBcast(t, m, root, msg, m.Colors())
	bytes, _, _ := m.NodeAt(root).DMA.Stats()
	// Expected: wire bytes of the message split into chunks, injected once.
	params := m.Cfg.Params
	offs, lens := geometry.SplitColors(msg, 6)
	_ = offs
	var want int64
	for _, l := range lens {
		for _, c := range params.Chunks(l) {
			want += int64(params.TorusWireBytes(c.Len))
		}
	}
	if bytes != want {
		t.Fatalf("root DMA moved %d bytes, want %d (single injection per byte)", bytes, want)
	}
}

func TestBcastSixColorAggregateBandwidth(t *testing.T) {
	// Large-message SMP-style broadcast should approach 6 links of payload
	// bandwidth (the paper's ~2.4 GB/s peak).
	m := newMachine(t, 4, 4, 4)
	msg := 4 << 20
	src := data.Phantom(msg)
	nodes := m.Geom.Nodes()
	dels := make([]*Delivery, nodes)
	for i := range dels {
		dels[i] = NewDelivery(m.K, "d")
	}
	b := &Bcast{M: m, Root: geometry.XYZ(0, 0, 0), Src: src, Bufs: make([]data.Buf, nodes), Deliveries: dels, Colors: m.Colors()}
	m.K.At(0, b.Run)
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	for n, d := range dels {
		if d.Counter.Value() != int64(msg) {
			t.Fatalf("node %d incomplete", n)
		}
		for range d.Lens {
		}
		_ = n
	}
	last = m.K.Now()
	rate := float64(msg) / last.Seconds()
	p := m.Cfg.Params
	payloadRatio := float64(p.TorusPayloadBytes) / float64(p.TorusPacketBytes)
	peak := 6 * p.TorusLinkBps * payloadRatio
	if rate < 0.75*peak {
		t.Fatalf("aggregate bcast rate %.0f MB/s, want >= 75%% of %.0f MB/s", rate/1e6, peak/1e6)
	}
	if rate > peak*1.01 {
		t.Fatalf("rate %.0f MB/s exceeds physical peak %.0f MB/s", rate/1e6, peak/1e6)
	}
}

func TestBcastDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := newMachine(t, 3, 2, 4)
		runBcast(t, m, geometry.XYZ(1, 1, 1), 128<<10, m.Colors())
		return m.K.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestDeliveryDrain(t *testing.T) {
	k := sim.New()
	d := NewDelivery(k, "x")
	d.Deliver(k, 0, hw.Span{Off: 0, Len: 10})
	d.Deliver(k, sim.Microsecond, hw.Span{Off: 10, Len: 5})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	lens := d.Drain(&seen)
	if len(lens) != 2 || seen != 2 || lens[0] != 10 || lens[1] != 5 {
		t.Fatalf("drain = %v seen %d", lens, seen)
	}
	if len(d.Drain(&seen)) != 0 {
		t.Fatal("second drain not empty")
	}
}

func TestBcastTracing(t *testing.T) {
	m := newMachine(t, 2, 2, 1)
	m.Trace = trace.New(64)
	runBcast(t, m, geometry.XYZ(0, 0, 0), 16<<10, m.Colors())
	if m.Trace.Count(trace.Net) == 0 {
		t.Error("no network events traced")
	}
	if m.Trace.Count(trace.Proto) == 0 {
		t.Error("no protocol events traced")
	}
}
