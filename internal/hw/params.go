// Package hw models the Blue Gene/P node and machine hardware parameters:
// core and memory cost model, network bandwidths and latencies, DMA and
// collective-network characteristics, and CNK-related constants. All numbers
// are calibration knobs of the simulator; defaults follow the published BG/P
// figures (850 MHz PowerPC 450 quad-core nodes, 425 MB/s torus links, 850
// MB/s collective network, 8 MB shared L2/L3).
package hw

import (
	"slices"

	"bgpcoll/internal/sim"
)

// Params holds every hardware calibration constant of the machine model.
type Params struct {
	// CoreClockHz is the core frequency (informational; costs below are
	// expressed as rates and latencies directly).
	CoreClockHz float64

	// Memory subsystem.
	BusBps        float64 // aggregate DRAM bandwidth shared by the node
	CopyCachedBps float64 // single-core memcpy rate, working set in L2/L3
	CopyDRAMBps   float64 // single-core memcpy rate, working set in DRAM
	ReduceBps     float64 // single-core streaming double-sum rate (cached)
	ReduceDRAMBps float64 // same, working set in DRAM
	CacheBytes    int     // shared L2/L3 capacity (paper: 8 MB)

	// Torus network.
	TorusLinkBps      float64  // per link per direction, raw
	TorusHopLatency   sim.Time // per-hop forwarding latency
	TorusPacketBytes  int      // wire size of one packet
	TorusPayloadBytes int      // payload per packet

	// DMA engine.
	DMABps     float64  // aggregate engine throughput (injection+reception+local)
	DMAStartup sim.Time // per-descriptor startup cost

	// Collective (tree) network.
	TreeBps          float64  // channel rate up/down
	TreeHopLatency   sim.Time // per tree hop
	TreeCoreTouchBps float64  // core rate to inject or receive tree packets
	TreePacketBytes  int      // wire size of one tree packet
	TreePayloadBytes int      // payload per tree packet

	// CNK / process windows.
	SyscallTime     sim.Time // one system call
	MapSyscalls     int      // syscalls per new process-window mapping
	TLBSlots        int      // process-window TLB slots per process
	TLBSlotBytes    int      // span of one slot (1, 16 or 256 MB)
	MapCacheEnabled bool     // cache repeated buffer mappings

	// Intra-node synchronization.
	PollLatency    sim.Time // shared counter/flag propagation between cores
	BarrierLatency sim.Time // global interrupt network barrier

	// Software pipelining and staging.
	FIFOSlotBytes int // Bcast FIFO slot payload size
	FIFOSlots     int // slots per Bcast FIFO
	MinChunk      int // smallest pipeline chunk
	MaxChunk      int // largest pipeline chunk
	ChunkDivisor  int // target chunks per message (bounded by Min/MaxChunk)
}

// DefaultParams returns the calibrated BG/P parameter set used by all
// benchmarks (see DESIGN.md §5).
func DefaultParams() Params {
	return Params{
		CoreClockHz: 850e6,

		BusBps:        13.6e9,
		CopyCachedBps: 2.3e9,
		CopyDRAMBps:   1.1e9,
		ReduceBps:     1.7e9,
		ReduceDRAMBps: 0.9e9,
		CacheBytes:    8 << 20,

		TorusLinkBps:      425e6,
		TorusHopLatency:   sim.Nanoseconds(100),
		TorusPacketBytes:  256,
		TorusPayloadBytes: 240,

		DMABps:     5.5e9,
		DMAStartup: sim.Nanoseconds(300),

		TreeBps:          850e6,
		TreeHopLatency:   sim.Nanoseconds(130),
		TreeCoreTouchBps: 1.1e9,
		TreePacketBytes:  256,
		TreePayloadBytes: 256,

		SyscallTime:     sim.Microseconds(1.5),
		MapSyscalls:     2,
		TLBSlots:        3,
		TLBSlotBytes:    256 << 20,
		MapCacheEnabled: true,

		PollLatency:    sim.Nanoseconds(250),
		BarrierLatency: sim.Microseconds(1.3),

		FIFOSlotBytes: 8 << 10,
		FIFOSlots:     16,
		MinChunk:      4 << 10,
		MaxChunk:      64 << 10,
		ChunkDivisor:  32,
	}
}

// TorusWireBytes returns the on-wire byte count for n payload bytes on the
// torus, accounting for packetization overhead.
func (p Params) TorusWireBytes(n int) int {
	if n <= 0 {
		return 0
	}
	packets := (n + p.TorusPayloadBytes - 1) / p.TorusPayloadBytes
	return packets * p.TorusPacketBytes
}

// TreeWireBytes returns the on-wire byte count for n payload bytes on the
// collective network.
func (p Params) TreeWireBytes(n int) int {
	if n <= 0 {
		return 0
	}
	packets := (n + p.TreePayloadBytes - 1) / p.TreePayloadBytes
	return packets * p.TreePacketBytes
}

// Chunk returns the software pipelining chunk size for an n-byte message:
// roughly n/ChunkDivisor clamped to [MinChunk, MaxChunk], and never larger
// than the message itself.
func (p Params) Chunk(n int) int {
	if n <= 0 {
		return 0
	}
	c := n / p.ChunkDivisor
	c -= c % 512 // keep chunk boundaries element- and packet-aligned
	if c < p.MinChunk {
		c = p.MinChunk
	}
	if c > p.MaxChunk {
		c = p.MaxChunk
	}
	if c > n {
		c = n
	}
	return c
}

// Chunks splits n bytes into pipeline chunks and returns the chunk
// boundaries as (offset, length) pairs.
func (p Params) Chunks(n int) []Span {
	if n <= 0 {
		return nil
	}
	return p.AppendChunks(nil, n)
}

// AppendChunks appends Chunks(n) to dst and returns the extended slice, so
// a caller that recycles its span list allocates nothing once it is large
// enough. It grows dst at most once, to exactly the room the chunks need.
func (p Params) AppendChunks(dst []Span, n int) []Span {
	if n <= 0 {
		return dst
	}
	c := p.Chunk(n)
	dst = slices.Grow(dst, (n+c-1)/c)
	for off := 0; off < n; off += c {
		l := c
		if off+l > n {
			l = n - off
		}
		dst = append(dst, Span{Off: off, Len: l})
	}
	return dst
}

// Span is a contiguous byte range of a message buffer.
type Span struct{ Off, Len int }
