package hw

import (
	"testing"
	"testing/quick"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/sim"
)

func TestDefaultParamsSane(t *testing.T) {
	p := DefaultParams()
	if p.CopyCachedBps <= p.CopyDRAMBps {
		t.Error("cached copy not faster than DRAM copy")
	}
	if p.ReduceBps <= p.ReduceDRAMBps {
		t.Error("cached reduce not faster than DRAM reduce")
	}
	if p.DMABps < 12*p.TorusLinkBps {
		t.Error("DMA cannot sustain six torus links in and out simultaneously (paper §III)")
	}
	if p.TreeBps <= p.TorusLinkBps {
		t.Error("tree slower than one torus link")
	}
	if 2*p.TorusLinkBps >= p.TreeBps+p.TorusLinkBps {
		t.Error("unexpected rate relation")
	}
	if p.TLBSlots != 3 {
		t.Errorf("default TLB slots = %d, want 3 (paper §III-B)", p.TLBSlots)
	}
	if p.CacheBytes != 8<<20 {
		t.Errorf("cache = %d, want 8 MB", p.CacheBytes)
	}
}

func TestWireBytes(t *testing.T) {
	p := DefaultParams()
	if got := p.TorusWireBytes(240); got != 256 {
		t.Errorf("TorusWireBytes(240) = %d", got)
	}
	if got := p.TorusWireBytes(241); got != 512 {
		t.Errorf("TorusWireBytes(241) = %d", got)
	}
	if got := p.TorusWireBytes(0); got != 0 {
		t.Errorf("TorusWireBytes(0) = %d", got)
	}
	if got := p.TreeWireBytes(256); got != 256 {
		t.Errorf("TreeWireBytes(256) = %d", got)
	}
	if got := p.TreeWireBytes(257); got != 512 {
		t.Errorf("TreeWireBytes(257) = %d", got)
	}
}

func TestWireBytesMonotone(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return p.TorusWireBytes(x) <= p.TorusWireBytes(y) && p.TorusWireBytes(y) >= y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkBounds(t *testing.T) {
	p := DefaultParams()
	cases := []struct{ n, want int }{
		{0, 0},
		{100, 100}, // tiny message: one chunk
		{p.MinChunk, p.MinChunk},
		{1 << 20, 32 << 10},    // 1M/32 = 32K within bounds
		{64 << 20, p.MaxChunk}, // clamped high
		{8 << 10, 4 << 10},     // small message: clamped up to MinChunk
	}
	for _, c := range cases {
		if got := p.Chunk(c.n); got != c.want {
			t.Errorf("Chunk(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestChunksTile(t *testing.T) {
	p := DefaultParams()
	f := func(n uint32) bool {
		size := int(n % (8 << 20))
		spans := p.Chunks(size)
		off := 0
		for _, s := range spans {
			if s.Off != off || s.Len <= 0 {
				return false
			}
			off += s.Len
		}
		return off == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if SMP.String() != "SMP" || Dual.String() != "DUAL" || Quad.String() != "QUAD" {
		t.Error("mode strings wrong")
	}
	if Quad.ProcsPerNode() != 4 {
		t.Error("quad procs != 4")
	}
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c.Mode = Mode(3)
	if err := c.Validate(); err == nil {
		t.Error("invalid mode accepted")
	}
	c = DefaultConfig()
	c.Params.TLBSlots = 2
	if err := c.Validate(); err == nil {
		t.Error("too few TLB slots for quad mode accepted")
	}
	c.Mode = Dual // 1 peer in dual mode needs only 1 slot... 2 is fine
	if err := c.Validate(); err != nil {
		t.Errorf("dual mode with 2 slots rejected: %v", err)
	}
}

func TestConfigCounts(t *testing.T) {
	c := DefaultConfig()
	if c.Nodes() != 32 || c.Ranks() != 128 {
		t.Fatalf("default config %d nodes %d ranks", c.Nodes(), c.Ranks())
	}
}

func TestRackConfigs(t *testing.T) {
	for _, rc := range []struct{ racks, nodes int }{{1, 1024}, {2, 2048}, {4, 4096}} {
		racks, nodes := rc.racks, rc.nodes
		c, err := RackConfig(racks)
		if err != nil {
			t.Fatal(err)
		}
		if c.Nodes() != nodes {
			t.Errorf("%d racks: %d nodes, want %d", racks, c.Nodes(), nodes)
		}
		if c.Ranks() != 4*nodes {
			t.Errorf("%d racks: %d ranks", racks, c.Ranks())
		}
	}
	if _, err := RackConfig(3); err == nil {
		t.Error("RackConfig(3) accepted")
	}
	if c := MidplaneConfig(); c.Nodes() != 512 {
		t.Errorf("midplane nodes = %d", c.Nodes())
	}
}

func TestNodeCopyCosts(t *testing.T) {
	k := sim.New()
	n := NewNode(k, 0, geometry.Coord{}, DefaultParams())
	if !n.Cached(8 << 20) {
		t.Error("8 MB should fit the cache")
	}
	if n.Cached(8<<20 + 1) {
		t.Error("8 MB + 1 should not fit")
	}
	cached := n.CopyTime(1<<20, true)
	dram := n.CopyTime(1<<20, false)
	if cached >= dram {
		t.Errorf("cached copy %v not faster than dram %v", cached, dram)
	}
	if n.ReduceTime(1<<20, true) <= cached {
		t.Error("reduce should be slower than copy")
	}
}

func TestNodeCopyAdvancesProcess(t *testing.T) {
	k := sim.New()
	n := NewNode(k, 0, geometry.Coord{}, DefaultParams())
	var done sim.Time
	k.Spawn("copier", func(p *sim.Proc) {
		n.CopyThen(p, 1<<20, true, func() {})
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := n.CopyTime(1<<20, true)
	if done != want {
		t.Fatalf("copy took %v, want %v (bus should not dominate a single copy)", done, want)
	}
}

func TestConcurrentCopiesShareBus(t *testing.T) {
	k := sim.New()
	p := DefaultParams()
	// Make the bus the bottleneck: slower than one core's copy rate.
	p.BusBps = p.CopyCachedBps / 2
	n := NewNode(k, 0, geometry.Coord{}, p)
	var last sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("copier", func(pr *sim.Proc) {
			n.CopyThen(pr, 1<<20, true, func() {})
			if pr.Now() > last {
				last = pr.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Two 1 MB copies over a bus at CopyCachedBps/2 serialize: total 4x a
	// single cached copy.
	want := 4 * n.CopyTime(1<<20, true)
	if diff := last - want; diff < -sim.Nanosecond || diff > sim.Nanosecond {
		t.Fatalf("bus-bound copies finished at %v, want %v", last, want)
	}
}

func TestZeroByteOpsFree(t *testing.T) {
	k := sim.New()
	n := NewNode(k, 0, geometry.Coord{}, DefaultParams())
	k.Spawn("p", func(p *sim.Proc) {
		n.CopyThen(p, 0, true, func() {})
		n.ReduceThen(p, 0, true, func() {})
		if p.Now() != 0 {
			t.Errorf("zero-byte ops consumed %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
