// Package analytic provides closed-form bottleneck models for the
// collective algorithms: for each algorithm it computes the largest
// per-resource service demand (links, DMA engine, cores, memory bus, tree
// channel) plus the pipeline-fill latency floor. The models serve two
// purposes:
//
//   - Cross-validation: tests assert that simulated times are never below
//     the bound (the simulator cannot beat physics) and, for large
//     messages, land within a small factor of it (the simulator does not
//     invent overheads the model cannot explain).
//   - Explanation: the dominant term names the bottleneck the paper
//     attributes each algorithm's behaviour to.
//
// All models describe a broadcast/allreduce from rank 0 in steady state.
package analytic

import (
	"fmt"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// Bound is a lower bound on an operation's duration, with the name of the
// binding resource.
type Bound struct {
	T          sim.Time
	Bottleneck string
}

// cand is one resource's service demand, a candidate for the bound.
type cand struct {
	name string
	t    sim.Time
}

// pick returns the largest demand as the bound. Candidates are scanned in
// the order given and the first maximum wins, so an exact tie always names
// the same resource.
func pick(cands ...cand) Bound {
	var b Bound
	for _, c := range cands {
		if c.t > b.T {
			b = Bound{T: c.t, Bottleneck: c.name}
		}
	}
	return b
}

// torusColorDepth returns the maximum hop distance of a color route: the
// pipeline depth of the rectangle broadcast.
func torusColorDepth(t geometry.Torus) int {
	return (t.DX - 1) + (t.DY - 1) + (t.DZ - 1)
}

// copyRate returns the single-core copy rate for a working set of the given
// footprint.
func copyRate(p hw.Params, footprint int) float64 {
	if footprint <= p.CacheBytes {
		return p.CopyCachedBps
	}
	return p.CopyDRAMBps
}

// colorBytes is the per-color payload share of an n-byte message over six
// colors (the largest share, which gates completion).
func colorBytes(n int) int {
	offs, lens := geometry.SplitColors(n, 6)
	_ = offs
	max := 0
	for _, l := range lens {
		if l > max {
			max = l
		}
	}
	return max
}

// TorusBcastSMP bounds the SMP-mode direct-put broadcast: each color's
// partition streams through the root's injection link once; delivery ends
// one tree depth after the stream.
func TorusBcastSMP(cfg hw.Config, msg int) Bound {
	p := cfg.Params
	part := p.TorusWireBytes(colorBytes(msg))
	depth := torusColorDepth(cfg.Torus)
	link := sim.TransferTime(part, p.TorusLinkBps) + sim.Time(depth)*p.TorusHopLatency
	dma := sim.TransferTime(p.TorusWireBytes(msg), p.DMABps) // root injects the whole message
	return pick(
		cand{"color link stream", link},
		cand{"root DMA inject", dma},
	)
}

// TorusBcastDirectPut bounds the quad-mode direct-put broadcast: on every
// node the DMA engine must receive the full wire stream and additionally
// move it to the peers (read+write per local copy).
func TorusBcastDirectPut(cfg hw.Config, msg int) Bound {
	p := cfg.Params
	peers := cfg.Mode.ProcsPerNode() - 1
	dmaBytes := p.TorusWireBytes(msg) + 2*peers*msg
	return pick(
		cand{"node DMA (rx + local puts)", sim.TransferTime(dmaBytes, p.DMABps)},
		cand{"network", TorusBcastSMP(cfg, msg).T},
	)
}

// TorusBcastShaddr bounds the quad-mode shared-address broadcast: the
// network stream as in SMP mode, each peer core copying the full message,
// and the node memory bus serving all peer copies (the bus is accounted in
// operation bytes, matching hw.Node: BusBps is effective copy throughput).
func TorusBcastShaddr(cfg hw.Config, msg int) Bound {
	p := cfg.Params
	peers := cfg.Mode.ProcsPerNode() - 1
	footprint := cfg.Mode.ProcsPerNode() * msg
	peerCopy := sim.TransferTime(msg, copyRate(p, footprint))
	return pick(
		cand{"network", TorusBcastSMP(cfg, msg).T},
		cand{"peer core copy", peerCopy},
		cand{"node memory bus", sim.TransferTime(peers*msg, p.BusBps)},
	)
}

// TorusBcastFIFO bounds the Bcast-FIFO broadcast: the shared-address terms
// plus the master's staging copy-in, with the doubled working set.
func TorusBcastFIFO(cfg hw.Config, msg int) Bound {
	p := cfg.Params
	peers := cfg.Mode.ProcsPerNode() - 1
	footprint := 2 * cfg.Mode.ProcsPerNode() * msg
	rate := copyRate(p, footprint)
	stage := sim.TransferTime(msg, rate) // master copy-in; peers copy out in parallel
	return pick(
		cand{"network", TorusBcastSMP(cfg, msg).T},
		cand{"FIFO staging copy", stage},
		cand{"node memory bus", sim.TransferTime((1+peers)*msg, p.BusBps)},
	)
}

// TreeBcastSMP bounds the SMP-mode collective-network broadcast: the tree
// channel carries the wire stream once; injection and reception each run on
// their own thread.
func TreeBcastSMP(cfg hw.Config, msg int) Bound {
	p := cfg.Params
	wire := p.TreeWireBytes(msg)
	depth := cfg.Torus.DX + cfg.Torus.DY + cfg.Torus.DZ
	return pick(
		cand{"tree channel", sim.TransferTime(wire, p.TreeBps) + sim.Time(depth)*p.TreeHopLatency},
		cand{"core touch", sim.TransferTime(wire, p.TreeCoreTouchBps)},
	)
}

// TreeBcastOneCore bounds the quad-mode algorithms whose master core both
// injects and receives (shmem and the DMA variants): two byte-touches per
// payload byte on one core.
func TreeBcastOneCore(cfg hw.Config, msg int) Bound {
	p := cfg.Params
	wire := p.TreeWireBytes(msg)
	return pick(
		cand{"master core inject+receive", sim.TransferTime(2*wire, p.TreeCoreTouchBps)},
		cand{"tree channel", TreeBcastSMP(cfg, msg).T},
	)
}

// TreeBcastShaddr bounds the core-specialized quad algorithm: injection and
// reception on separate cores, so the tree channel binds, unless rank 2's
// double copy (own buffer plus the injector's) outpaces it.
func TreeBcastShaddr(cfg hw.Config, msg int) Bound {
	p := cfg.Params
	footprint := cfg.Mode.ProcsPerNode() * msg
	doubleCopy := sim.TransferTime(2*msg, copyRate(p, footprint))
	return pick(
		cand{"tree channel", TreeBcastSMP(cfg, msg).T},
		cand{"rank2 double copy", doubleCopy},
	)
}

// TreeBarrier bounds MPI_Barrier: the global interrupt network releases all
// nodes one BarrierLatency after the last arrival, independent of scale —
// the asymptote the figS capacity sweep validates out to 10^6 ranks. In the
// simulator's steady state (every rank arriving at the same instant), the
// bound is exact.
func TreeBarrier(cfg hw.Config) Bound {
	return Bound{T: cfg.Params.BarrierLatency, Bottleneck: "interrupt network"}
}

// AllreduceNew bounds the proposed allreduce: per color, the partition
// streams up the reversed links and down the forward links (overlapped);
// each reducing core performs a fused multi-operand pass (2 accumulate
// equivalents per byte) over its partition; each peer core copies the full
// result out.
func AllreduceNew(cfg hw.Config, bytes int) Bound {
	p := cfg.Params
	_, lens := geometry.SplitAligned(bytes, 3, 8)
	part := 0
	for _, l := range lens {
		if l > part {
			part = l
		}
	}
	footprint := (2*cfg.Mode.ProcsPerNode() + 2) * bytes
	reduceRate := p.ReduceBps
	if footprint > p.CacheBytes {
		reduceRate = p.ReduceDRAMBps
	}
	depth := torusColorDepth(cfg.Torus)
	linkStream := sim.TransferTime(p.TorusWireBytes(part), p.TorusLinkBps) +
		sim.Time(2*depth)*p.TorusHopLatency
	return pick(
		cand{"color link stream", linkStream},
		cand{"local reduce", sim.TransferTime(2*part, reduceRate)},
		cand{"result copy-out", sim.TransferTime(bytes, copyRate(p, footprint))},
	)
}

// BcastBound dispatches to the model for a registered broadcast algorithm
// name (the mpi registry names).
func BcastBound(cfg hw.Config, algo string, msg int) (Bound, error) {
	switch algo {
	case "torus.directput":
		if cfg.Mode == hw.SMP {
			return TorusBcastSMP(cfg, msg), nil
		}
		return TorusBcastDirectPut(cfg, msg), nil
	case "torus.shaddr":
		return TorusBcastShaddr(cfg, msg), nil
	case "torus.fifo":
		return TorusBcastFIFO(cfg, msg), nil
	case "tree.smp":
		return TreeBcastSMP(cfg, msg), nil
	case "tree.shmem", "tree.dmafifo", "tree.dmadirect":
		return TreeBcastOneCore(cfg, msg), nil
	case "tree.shaddr":
		return TreeBcastShaddr(cfg, msg), nil
	}
	return Bound{}, fmt.Errorf("analytic: no model for algorithm %q", algo)
}
