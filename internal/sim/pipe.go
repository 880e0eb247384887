package sim

import "fmt"

// Pipe models a serialized bandwidth resource: a torus link, the DMA engine,
// the collective tree channel, or a memory bus. Transfers occupy the pipe
// back to back in reservation order, so concurrent users automatically share
// the bandwidth and queueing delay emerges from contention.
//
// A reservation of n bytes made at time t completes at
//
//	start = max(t, free) ; done = start + n/bandwidth + latency
//
// and the pipe becomes free for the next reservation at start + n/bandwidth:
// the fixed latency models wire/forwarding delay that does not occupy the
// channel.
type Pipe struct {
	k    *Kernel
	name string
	// nid is the flyweight name suffix: a per-device index formatted into
	// Name() only when a name is actually rendered (panics, reports). -1
	// means the name is just the string. Worlds with 10^5..10^6 pipes pay
	// for one shared prefix string instead of a fmt.Sprintf per device.
	nid int32
	ppb float64 // picoseconds per byte
	lat Time

	free Time

	// Statistics for utilization reporting.
	totalBytes int64
	busy       Time
	transfers  int64

	// fpGen/fpID intern this object into a steady-state fingerprint walk
	// (steady.go): when fpGen equals the walking capture's generation the
	// object is already labelled fpID; any other value means unseen. The
	// stamp lives on the object so a rack-scale capture interns millions of
	// objects with two word writes instead of a map insert.
	fpGen uint64
	fpID  uint32
}

// NewPipe creates a pipe with the given bandwidth in bytes/second and fixed
// per-transfer latency. Unlike events and counters, pipes keep their identity
// across Kernel.Reset (the machine's networks hold them for the partition's
// lifetime); the kernel registers each pipe so Reset can rewind its
// reservation state and statistics along with the clock.
func (k *Kernel) NewPipe(name string, bytesPerSecond float64, latency Time) *Pipe {
	p := &Pipe{}
	k.InitPipe(p, name, -1, bytesPerSecond, latency)
	k.AdoptPipe(p)
	return p
}

// InitPipe initializes a caller-allocated pipe in place without registering
// it with the kernel. It touches only the pipe itself, so disjoint pipes may
// be initialized concurrently (the machine layer builds node devices in
// parallel blocks); the caller must register every pipe with AdoptPipe from
// a single goroutine before the kernel runs, or Reset will not rewind it.
// nid >= 0 appends "[nid]" to the rendered name (see Pipe.nid).
func (k *Kernel) InitPipe(p *Pipe, name string, nid int32, bytesPerSecond float64, latency Time) {
	if bytesPerSecond <= 0 {
		panic("sim: pipe " + name + " with non-positive bandwidth")
	}
	*p = Pipe{k: k, name: name, nid: nid, ppb: float64(Second) / bytesPerSecond, lat: latency}
}

// AdoptPipe registers a pipe initialized with InitPipe so Reset rewinds its
// reservation state along with the clock. Registration order is irrelevant
// (Reset rewinds all pipes); calling it once per pipe is the caller's
// responsibility. Like NewPipe, it may run mid-simulation (lazily created
// torus links, per-operation protocol pipes) — but only from code holding
// the virtual-CPU token, never from a construction worker after Run starts.
func (k *Kernel) AdoptPipe(p *Pipe) {
	k.pipes = append(k.pipes, p)
}

// ReleasePipes forgets every registered pipe. It exists for capacity-aware
// reconfiguration (machine.Reconfigure): a partition that rebuilds its device
// graph on the same kernel must first drop the old generation's pipes or
// Reset would keep rewinding — and keep alive — devices nothing references.
// Callers must not reserve on a released pipe afterwards.
func (k *Kernel) ReleasePipes() {
	if k.running {
		panic("sim: ReleasePipes during Run")
	}
	clear(k.pipes)
	k.pipes = k.pipes[:0]
	k.pipeEpoch++
}

// PipeEpoch counts ReleasePipes calls. A pipe adopted under an earlier
// epoch is no longer registered, so an owner that recycles adopted pipes
// across runs (per-operation protocol pipes) compares epochs to learn
// whether its pipes must be dropped.
func (k *Kernel) PipeEpoch() uint32 { return k.pipeEpoch }

// Pipes returns the number of pipes registered on the kernel.
func (k *Kernel) Pipes() int { return len(k.pipes) }

// Name returns the pipe's name.
func (p *Pipe) Name() string {
	if p.nid < 0 {
		return p.name
	}
	return fmt.Sprintf("%s[%d]", p.name, p.nid)
}

// Reserve occupies the pipe for n bytes starting no earlier than now and
// returns the completion time (including latency).
func (p *Pipe) Reserve(n int) Time { return p.ReserveFrom(p.k.now, n) }

// ReserveFrom occupies the pipe for n bytes starting no earlier than t
// (clamped to now) and returns the completion time. It is used to chain
// cut-through transfers across consecutive links, where the data cannot enter
// link i+1 before it left link i.
func (p *Pipe) ReserveFrom(t Time, n int) Time {
	_, done := p.ReserveAt(t, n)
	return done
}

// ReserveAt is ReserveFrom returning both the transfer's start time and its
// completion time (including latency). Cut-through chains use the start time
// of hop i to lower-bound the start of hop i+1 by one hop latency.
func (p *Pipe) ReserveAt(t Time, n int) (start, done Time) {
	if n < 0 {
		panic("sim: pipe " + p.Name() + " negative transfer")
	}
	start = maxTime(maxTime(t, p.k.now), p.free)
	cost := Time(float64(n) * p.ppb)
	p.free = start + cost
	p.totalBytes += int64(n)
	p.busy += cost
	p.transfers++
	return start, p.free + p.lat
}

// NextFree returns the earliest time a new reservation could start.
func (p *Pipe) NextFree() Time { return maxTime(p.free, p.k.now) }

// Latency returns the pipe's fixed per-transfer latency.
func (p *Pipe) Latency() Time { return p.lat }

// Stats reports cumulative bytes moved, busy time and transfer count since
// creation.
func (p *Pipe) Stats() (bytes int64, busy Time, transfers int64) {
	return p.totalBytes, p.busy, p.transfers
}
