package sim

// Process goroutines were once checked out of a worker pool in pool.go, the
// sanctioned launch site of its day. The pool is gone and each process
// starts its own goroutine from proc.go, so a go statement reappearing here
// must be flagged.
func launchFromPool(fn func()) {
	go fn() // want `raw go statement in a simulator-driven package`
}
