// Worker pool for process goroutines. A figure regeneration creates one
// Kernel per (series, size) cell and spawns up to 8192 rank processes into
// each; without pooling every cell pays goroutine creation plus stack
// regrowth for the whole partition. Workers here park between assignments
// and are shared process-wide (across kernels and across the bench sweep
// runner's OS-thread parallelism), so a new cell's Spawn reuses a parked
// goroutine whose stack already grew to collective-protocol depth.
//
// This file is the only sanctioned goroutine launch site in internal/sim
// (enforced by the bgplint rawgoroutine analyzer): a worker goroutine only
// ever executes simulation code while holding the virtual-CPU token its
// gate channel carries, so pooling adds no real concurrency to any kernel.
//
// Memory-model note: a worker re-parks (putWorker) only after it has passed
// the token on, and a worker's next assignment is written (Spawn) strictly
// between getWorker and the token send that starts it. The pool mutex orders
// repark against checkout, and the unbuffered gate send orders the
// assignment writes against the worker's reads, so worker reuse is race-free
// — including across concurrently running kernels on different OS threads.
package sim

import "sync"

// maxPooledWorkers bounds the parked-goroutine stash. Workers released
// beyond the cap simply exit: the cap only matters after a burst (e.g. a
// multi-kernel parallel sweep at full scale) and keeps the worst-case parked
// stack memory bounded. 1<<16 covers eight concurrent 8192-rank cells.
const maxPooledWorkers = 1 << 16

// worker is a pooled goroutine and its permanently owned gate channel.
// p and fn are the pending assignment, written by Spawn before the first
// token send and cleared by the worker when it starts running.
type worker struct {
	gate chan struct{}
	p    *Proc
	fn   func(*Proc)
}

var workerPool struct {
	mu sync.Mutex
	s  []*worker
}

// getWorker pops a parked worker or launches a fresh one. The caller must
// set w.p/w.fn before the worker's gate receives the virtual-CPU token.
func getWorker() *worker {
	workerPool.mu.Lock()
	if n := len(workerPool.s); n > 0 {
		w := workerPool.s[n-1]
		workerPool.s[n-1] = nil
		workerPool.s = workerPool.s[:n-1]
		workerPool.mu.Unlock()
		return w
	}
	workerPool.mu.Unlock()
	w := &worker{gate: make(chan struct{})}
	go w.loop()
	return w
}

// putWorker re-parks w for reuse; false means the pool is full and the
// worker should exit.
func putWorker(w *worker) bool {
	workerPool.mu.Lock()
	defer workerPool.mu.Unlock()
	if len(workerPool.s) >= maxPooledWorkers {
		return false
	}
	workerPool.s = append(workerPool.s, w)
	return true
}

// pooledWorkers reports the current parked count (tests only).
func pooledWorkers() int {
	workerPool.mu.Lock()
	defer workerPool.mu.Unlock()
	return len(workerPool.s)
}

// loop is the worker body: receive the token with an assignment pending, run
// the process to completion, pass the token to the next runnable process (or
// back to the kernel), then re-park. The token send must be the last
// kernel-state operation of the assignment; the repark happens after it and
// touches only the pool.
func (w *worker) loop() {
	for {
		<-w.gate
		p, fn := w.p, w.fn
		w.p, w.fn = nil, nil
		p.exec(fn)
		k := p.k
		if q := k.handoff(); q != nil {
			q.gate <- struct{}{}
		} else {
			k.sched <- struct{}{}
		}
		if !putWorker(w) {
			return
		}
	}
}
