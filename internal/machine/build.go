// Parallel world construction. A partition's per-node state lives in dense
// slabs (machine.go) where element id's content is a pure function of
// (id, shared config): no element reads another, and no construction-order
// decision leaks into any element. Filling the slabs in contiguous blocks on
// a bounded worker pool therefore yields a world bit-identical to the serial
// fill — the merge is the slab itself, and the only serial steps left are
// the ones that append to shared kernel state (pipe adoption), which run in
// fixed id order after the fan-out. The equivalence tests in
// internal/bench pin parallel-vs-serial construction bit for bit.
//
// This file is a bgplint-sanctioned goroutine launch site (rawgoroutine.go):
// the workers run before the kernel does, touch disjoint slab ranges, and
// are joined before New returns, so no goroutine ever runs concurrently
// with the event loop.
package machine

import (
	"runtime"
	"sync"
)

// BuildWorkers bounds the construction worker pool: 0 (the default) means
// GOMAXPROCS. It is a pure wall-clock knob — the built world is bit-identical
// for every value — and only tests set it, to check exactly that.
var BuildWorkers int

// buildBlockMin is the smallest per-worker block worth a goroutine; below
// workers*buildBlockMin elements the fill runs serially on the caller.
const buildBlockMin = 2048

// ParallelBlocks partitions 0..n-1 into one contiguous block per worker and
// runs fill(lo, hi) for each, joining before it returns. fill must write
// only state owned by elements lo..hi-1. Small n runs serially.
func ParallelBlocks(n int, fill func(lo, hi int)) {
	workers := BuildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n/buildBlockMin {
		workers = n / buildBlockMin
	}
	if workers <= 1 {
		fill(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		go func() {
			defer wg.Done()
			fill(lo, hi)
		}()
	}
	wg.Wait()
}
