package analytic

import (
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/coll"
	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

func init() { coll.Register() }

func crossConfig(mode hw.Mode) hw.Config {
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: 4, DY: 4, DZ: 4}
	cfg.Mode = mode
	cfg.Functional = false
	return cfg
}

// TestSimulatorRespectsBounds cross-validates the simulator against the
// bottleneck models: for every modeled algorithm and a range of large
// messages, the simulated time must be at least the analytic lower bound
// and within a pipelining/fill slack factor of it.
func TestSimulatorRespectsBounds(t *testing.T) {
	cases := []struct {
		algo  string
		mode  hw.Mode
		slack float64 // allowed sim/bound ratio at large sizes
	}{
		{"torus.directput", hw.SMP, 1.5},
		{"torus.directput", hw.Quad, 1.5},
		{"torus.shaddr", hw.Quad, 1.6},
		{"torus.fifo", hw.Quad, 1.8},
		{"tree.smp", hw.SMP, 1.5},
		{"tree.shmem", hw.Quad, 1.8},
		{"tree.dmafifo", hw.Quad, 1.8},
		{"tree.dmadirect", hw.Quad, 1.8},
		{"tree.shaddr", hw.Quad, 1.6},
	}
	for _, c := range cases {
		cfg := crossConfig(c.mode)
		for _, msg := range []int{512 << 10, 2 << 20} {
			bound, err := BcastBound(cfg, c.algo, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bench.MeasureBcast(cfg, c.algo, msg, 2)
			if err != nil {
				t.Fatalf("%s: %v", c.algo, err)
			}
			if got < bound.T {
				t.Errorf("%s/%s @ %s: simulated %v beats physical bound %v (%s)",
					c.algo, c.mode, bench.SizeLabel(msg), got, bound.T, bound.Bottleneck)
			}
			if ratio := float64(got) / float64(bound.T); ratio > c.slack {
				t.Errorf("%s/%s @ %s: simulated %v is %.2fx the bound %v (%s); slack limit %.2f",
					c.algo, c.mode, bench.SizeLabel(msg), got, ratio, bound.T, bound.Bottleneck, c.slack)
			}
		}
	}
}

// TestAllreduceRespectsBound does the same for the proposed allreduce.
func TestAllreduceRespectsBound(t *testing.T) {
	cfg := crossConfig(hw.Quad)
	for _, doubles := range []int{64 << 10, 256 << 10} {
		bytes := doubles * data.Float64Len
		bound := AllreduceNew(cfg, bytes)
		got, err := bench.MeasureAllreduce(cfg, mpi.AllreduceTorusNew, doubles, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got < bound.T {
			t.Errorf("allreduce @ %d doubles: %v beats bound %v (%s)", doubles, got, bound.T, bound.Bottleneck)
		}
		if ratio := float64(got) / float64(bound.T); ratio > 3.0 {
			t.Errorf("allreduce @ %d doubles: %v is %.2fx bound %v (%s)",
				doubles, got, ratio, bound.T, bound.Bottleneck)
		}
	}
}

// TestBottleneckIdentification checks the models name the bottlenecks the
// paper attributes each design's behaviour to.
func TestBottleneckIdentification(t *testing.T) {
	quad := crossConfig(hw.Quad)
	const big = 2 << 20

	if b := TorusBcastDirectPut(quad, big); b.Bottleneck != "node DMA (rx + local puts)" {
		t.Errorf("quad direct put bottleneck = %s, want the DMA (paper §V-A)", b.Bottleneck)
	}
	if b := TorusBcastSMP(quad, big); b.Bottleneck != "color link stream" {
		t.Errorf("SMP torus bottleneck = %s, want the links", b.Bottleneck)
	}
	if b := TreeBcastOneCore(quad, big); b.Bottleneck != "master core inject+receive" {
		t.Errorf("one-core tree bottleneck = %s, want the master core (paper §V-B)", b.Bottleneck)
	}
	if b := TreeBcastShaddr(quad, 128<<10); b.Bottleneck != "tree channel" {
		t.Errorf("shaddr tree bottleneck = %s, want the tree channel", b.Bottleneck)
	}
}

// TestBottleneckTieIsDeterministic forces an exact tie in the one-core tree
// model: with no hop latency and a core touch rate of twice the channel
// rate, two touches per wire byte take exactly as long as the channel. The
// first candidate listed must win on every call.
func TestBottleneckTieIsDeterministic(t *testing.T) {
	cfg := crossConfig(hw.Quad)
	cfg.Params.TreeHopLatency = 0
	cfg.Params.TreeCoreTouchBps = 2 * cfg.Params.TreeBps
	const msg = 1 << 20
	wire := cfg.Params.TreeWireBytes(msg)
	if core, channel := sim.TransferTime(2*wire, cfg.Params.TreeCoreTouchBps),
		sim.TransferTime(wire, cfg.Params.TreeBps); core != channel {
		t.Fatalf("no tie: core %v, channel %v", core, channel)
	}
	for i := 0; i < 100; i++ {
		if b := TreeBcastOneCore(cfg, msg); b.Bottleneck != "master core inject+receive" {
			t.Fatalf("call %d: tie named %q, want the first candidate", i, b.Bottleneck)
		}
	}
}

// TestBoundsMonotone checks bounds grow with message size.
func TestBoundsMonotone(t *testing.T) {
	cfg := crossConfig(hw.Quad)
	for _, algo := range []string{"torus.directput", "torus.shaddr", "torus.fifo", "tree.shmem", "tree.shaddr"} {
		var prev sim.Time
		for _, msg := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
			b, err := BcastBound(cfg, algo, msg)
			if err != nil {
				t.Fatal(err)
			}
			if b.T <= prev {
				t.Errorf("%s: bound not increasing at %s", algo, bench.SizeLabel(msg))
			}
			prev = b.T
		}
	}
}

// TestShaddrAdvantagePredicted checks the models predict the paper's
// ordering before any simulation runs: the quad direct-put bound must
// exceed the shared-address bound by a large factor at 2 MB.
func TestShaddrAdvantagePredicted(t *testing.T) {
	cfg := crossConfig(hw.Quad)
	const msg = 2 << 20
	direct := TorusBcastDirectPut(cfg, msg).T
	shaddr := TorusBcastShaddr(cfg, msg).T
	if ratio := float64(direct) / float64(shaddr); ratio < 2.0 {
		t.Errorf("model predicts only %.2fx for shaddr vs direct put; paper says ~2.9x", ratio)
	}
	one := TreeBcastOneCore(cfg, 128<<10).T
	spec := TreeBcastShaddr(cfg, 128<<10).T
	if ratio := float64(one) / float64(spec); ratio < 1.2 {
		t.Errorf("model predicts only %.2fx for tree core specialization; paper says ~1.45x", ratio)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	if _, err := BcastBound(crossConfig(hw.Quad), "nonsense", 1024); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
