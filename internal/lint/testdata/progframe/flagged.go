package coll

// A parking operation must be the last action on every path: the
// bookkeeping after it races the armed resume.
func flaggedAfterPark(p *Proc, c *Counter, done func()) int {
	i := 0
	p.WaitGEThen(c, 1, done) // want `parking operation WaitGEThen must be the last action on every path`
	i++
	return i
}

// A stored continuation must likewise be invoked in tail position.
func flaggedAfterCont(fin func()) int {
	n := 1
	fin() // want `continuation fin\(\) must be invoked in tail position`
	n++
	return n
}

// Allocating the continuation closure per chunk is the per-iteration cost
// the state-struct style exists to avoid; inside a loop the parking call is
// also never in tail position.
func flaggedClosurePerChunk(p *Proc, c *Counter, spans []int) {
	for range spans {
		p.WaitGEThen(c, 1, func() {}) // want `allocated per chunk` `must be the last action on every path`
	}
}

// A method value rebuilt per iteration allocates just the same.
func flaggedMethodPerChunk(p *Proc, c *Counter, l *chunkLoop, spans []int) {
	for range spans {
		p.WaitGEThen(c, 1, l.step) // want `method value step for WaitGEThen is allocated per chunk` `must be the last action on every path`
	}
}

// So does a closure that travels through a local rebuilt each iteration.
func flaggedRebuiltLocal(p *Proc, c *Counter, spans []int) {
	for i := range spans {
		after := func() { _ = i }
		p.WaitGEThen(c, 1, after) // want `rebuilt every iteration` `must be the last action on every path`
	}
}

// A self-recursive closure re-runs its allocation sites once per
// activation even without a syntactic loop.
func flaggedRecursive(p *Proc, c *Counter, n int) {
	var step func(int)
	step = func(i int) {
		if i == n {
			return
		}
		p.WaitGEThen(c, 1, func() { step(i + 1) }) // want `allocated per chunk`
	}
	step(0)
}

// Writing a frame field while a resume is armed hands the kernel a torn
// frame.
func flaggedArmedWrite(p *Proc, fn func()) {
	p.cont = fn
	p.armed = true
	p.cont = fn // want `program frame field cont written while a resume is armed`
}

// Re-arming an armed frame loses the pending resume.
func flaggedRearm(p *Proc) {
	p.armed = true
	p.armed = true // want `program frame field armed written while a resume is armed`
}

// Registration must reference the single named transcription serving both
// modes, not an inline closure.
func flaggedRegistration() {
	RegisterProgBcast("scratch", func(p *Proc) {}) // want `RegisterProgBcast argument must be a named package-level function`
}
