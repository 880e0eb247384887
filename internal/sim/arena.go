// Per-kernel slab allocation. A figure cell allocates one Counter per tree
// chunk, per barrier and per protocol stage per rank, and one Proc per
// rank — hundreds of thousands of small objects whose lifetimes are all
// exactly the kernel's. Allocating them individually makes the allocator and
// the GC scan hot on the sweep path; carving them out of kernel-owned slabs
// makes allocation a slice index and lets the whole population die with the
// kernel in one sweep (nothing is freed piecemeal; dropping the Kernel drops
// every slab).
//
// Slabs are retained, not consumed: the arena keeps every slab it has ever
// made and tracks only a high-water count per kind. Two things depend on
// that. First, Kernel.Reset rewinds the counts to zero and the next run
// re-carves the same memory — a reused world allocates nothing on the carve
// path. Second, an object's position is stable for the kernel's lifetime, so
// a Proc is addressable by its dense uint32 index (slab number in the high
// bits, slot in the low bits) and the scheduler's queue entries can reference
// processes without holding pointers the GC would have to trace (see entry in
// kernel.go).
//
// Constructors must fully reinitialize every field of a carved object: after
// a Reset the slot still holds the previous run's state.
//
// Slabs are safe without locking for the same reason all kernel state is:
// NewCounter/Spawn only run under the virtual-CPU token (or before
// Run starts), so a kernel's arena is single-threaded even when multiple
// kernels run on parallel OS threads.
package sim

// slab sizes: large enough to amortize the make, small enough that a tiny
// unit-test kernel does not waste visible memory. Proc slabs are sized by the
// shift because proc indices pack (slab, slot) into a uint32.
const (
	counterSlabSize = 256

	procSlabShift = 8
	procSlabSize  = 1 << procSlabShift
	procSlotMask  = procSlabSize - 1
)

// arena holds the kernel's slabs. nCounters/nProcs count the objects carved
// since the last reset; the corresponding slab slices only ever grow.
type arena struct {
	counters  [][]Counter
	nCounters int
	procs     [][]Proc
	nProcs    int
}

// reset rewinds the carve counts so the next run reuses the same slabs. The
// stale contents are harmless: constructors reinitialize every field, and
// anything a stale slot still references belongs to this same kernel's object
// graph (which stays live regardless).
func (a *arena) reset() {
	a.nCounters, a.nProcs = 0, 0
}

func (a *arena) newCounter() *Counter {
	slab, slot := a.nCounters/counterSlabSize, a.nCounters%counterSlabSize
	if slab == len(a.counters) {
		a.counters = append(a.counters, make([]Counter, counterSlabSize))
	}
	a.nCounters++
	return &a.counters[slab][slot]
}

// newProc carves the next process slot and returns it with its dense index
// (the value of Proc.self and of every queue entry that references it).
func (a *arena) newProc() (*Proc, uint32) {
	self := uint32(a.nProcs)
	slab, slot := a.nProcs>>procSlabShift, a.nProcs&procSlotMask
	if slab == len(a.procs) {
		a.procs = append(a.procs, make([]Proc, procSlabSize))
	}
	a.nProcs++
	return &a.procs[slab][slot], self
}

// procAt resolves a dense process index to its slab slot.
func (a *arena) procAt(i uint32) *Proc {
	return &a.procs[i>>procSlabShift][i&procSlotMask]
}
