// Package cnk models the Compute Node Kernel's process-window support
// (paper §III-B): the system-call interface that lets a process map a peer
// process's memory into its own address space, enabling the shared-address
// communication schemes.
//
// Mapping a peer buffer costs two system calls per TLB-slot-sized region
// (translate VA to PA on the owner, then map the PA locally). Each process
// has N TLB slots reserved for process windows (default three, one per peer
// in quad mode); mapping more distinct regions than slots evicts the least
// recently used mapping, which must then be re-established on next use.
// Repeatedly used buffers are looked up in a mapping cache, the optimization
// evaluated in the paper's Fig. 8.
package cnk

import (
	"fmt"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// BufferKey identifies an application buffer of a peer process for mapping
// purposes: the owner's local rank and an application-chosen buffer tag.
type BufferKey struct {
	OwnerLocalRank int
	Tag            uint64
}

// Process is the per-process process-window state.
type Process struct {
	node      *hw.Node
	localRank int

	// mapped holds the buffer regions currently resident in TLB slots, in
	// least-recently-used order (front = coldest).
	mapped []regionKey

	// Stats.
	Syscalls  int64 // total system calls issued
	MapCalls  int64 // MapThen invocations
	CacheHits int64 // MapThen invocations fully served by resident mappings
	Evictions int64 // TLB slot evictions
}

type regionKey struct {
	buf    BufferKey
	region int // index of the TLB-slot-sized region within the buffer
}

// NewProcess creates process-window state for the process with the given
// local rank on node n.
func NewProcess(n *hw.Node, localRank int) *Process {
	w := &Process{}
	Init(w, n, localRank)
	return w
}

// Init initializes caller-allocated process-window state in place: the hot
// rank-construction path (mpi.Rank embeds a Process by value). It allocates
// nothing — the TLB-slot list stays nil until the first mapping — and fully
// overwrites w, so reused rank slabs need no separate Reset.
//
//bgplint:hot
func Init(w *Process, n *hw.Node, localRank int) {
	*w = Process{node: n, localRank: localRank}
}

// SteadyState canonicalizes the process-window residue for steady-state
// iteration extrapolation (sim.Steady): the resident TLB-slot list in LRU
// order — buffer keys are iteration-stable (the measure loops reuse one
// buffer), so the raw keys hash directly — and the four statistics counters
// as monotone lanes, extrapolated rather than hashed.
func (w *Process) SteadyState(f *sim.FP) {
	f.I64(int64(len(w.mapped)))
	for i := range w.mapped {
		m := &w.mapped[i]
		f.I64(int64(m.buf.OwnerLocalRank))
		f.I64(int64(m.buf.Tag))
		f.I64(int64(m.region))
	}
	f.MonoI64(&w.Syscalls)
	f.MonoI64(&w.MapCalls)
	f.MonoI64(&w.CacheHits)
	f.MonoI64(&w.Evictions)
}

// MapThen establishes (or refreshes) the process windows needed for this
// process to access `bytes` bytes of the peer buffer identified by key,
// advancing p by the system-call cost of any regions that are not already
// resident, then continues with cont (immediately when every region is
// already resident). Syscalls counts the system calls issued.
//
// With the mapping cache disabled (Params.MapCacheEnabled == false), every
// call pays the full system-call cost again, reproducing the "nocaching"
// curve of Fig. 8.
func (w *Process) MapThen(p *sim.Proc, key BufferKey, bytes int, cont func()) {
	calls := w.mapRegions(key, bytes)
	if calls > 0 {
		p.SleepThen(sim.Time(calls)*w.node.P.SyscallTime, cont)
		return
	}
	cont()
}

// mapRegions performs the TLB-slot bookkeeping of MapThen — residency checks,
// LRU updates, insertions, statistics — and returns the system calls issued,
// without consuming the virtual time they cost.
func (w *Process) mapRegions(key BufferKey, bytes int) int {
	if key.OwnerLocalRank == w.localRank {
		return 0 // own memory needs no window
	}
	w.MapCalls++
	params := w.node.P
	regions := 1
	if bytes > params.TLBSlotBytes {
		regions = (bytes + params.TLBSlotBytes - 1) / params.TLBSlotBytes
	}
	calls := 0
	hit := true
	for r := 0; r < regions; r++ {
		rk := regionKey{buf: key, region: r}
		if params.MapCacheEnabled && w.resident(rk) {
			w.touch(rk)
			continue
		}
		hit = false
		calls += params.MapSyscalls
		w.insert(rk)
	}
	if hit {
		w.CacheHits++
	}
	w.Syscalls += int64(calls)
	return calls
}

// resident reports whether rk occupies a TLB slot.
func (w *Process) resident(rk regionKey) bool {
	for _, m := range w.mapped {
		if m == rk {
			return true
		}
	}
	return false
}

// touch moves rk to the most-recently-used position.
func (w *Process) touch(rk regionKey) {
	for i, m := range w.mapped {
		if m == rk {
			copy(w.mapped[i:], w.mapped[i+1:])
			w.mapped[len(w.mapped)-1] = rk
			return
		}
	}
}

// insert adds rk, evicting the least recently used mapping if all TLB slots
// are occupied.
func (w *Process) insert(rk regionKey) {
	slots := w.node.P.TLBSlots
	if slots <= 0 {
		panic("cnk: process windows with zero TLB slots")
	}
	if len(w.mapped) >= slots {
		w.Evictions++
		copy(w.mapped, w.mapped[1:])
		w.mapped = w.mapped[:len(w.mapped)-1]
	}
	w.mapped = append(w.mapped, rk)
}

// Reset evicts every resident mapping and zeroes the statistics, returning
// the process-window state to its post-NewProcess condition. A reused
// partition (mpi.World.Reset) must start with cold TLB slots: a warm map
// cache would skip system calls a fresh world pays, changing virtual times.
func (w *Process) Reset() {
	w.mapped = w.mapped[:0]
	w.Syscalls, w.MapCalls, w.CacheHits, w.Evictions = 0, 0, 0, 0
}

// Resident returns the number of occupied TLB slots.
func (w *Process) Resident() int { return len(w.mapped) }

// String summarizes mapping statistics.
func (w *Process) String() string {
	return fmt.Sprintf("cnk.Process{lrank=%d maps=%d hits=%d syscalls=%d evictions=%d}",
		w.localRank, w.MapCalls, w.CacheHits, w.Syscalls, w.Evictions)
}
