package coll

// The house pattern, which the analyzer must accept: a per-rank state
// struct binds its continuations once, and every parking operation and
// continuation invocation sits in tail position.

// chunkLoop walks a span list one parked step at a time.
type chunkLoop struct {
	p      *Proc
	c      *Counter
	n, i   int
	cont   func()
	stepFn func()
}

func (l *chunkLoop) step() {
	if l.i == l.n {
		l.cont()
		return
	}
	l.i++
	l.p.WaitGEThen(l.c, 1, l.stepFn)
}

// runChunkLoop seeds the loop; binding stepFn here is the once-per-rank
// allocation the per-chunk checks push code toward.
func runChunkLoop(p *Proc, c *Counter, n int, fin func()) {
	l := &chunkLoop{p: p, c: c, n: n, cont: fin}
	l.stepFn = l.step
	l.step()
}

// A parking op may end each branch separately: tail position is judged on
// every path, not on the last textual statement.
func cleanBranchTail(p *Proc, c *Counter, l *chunkLoop) {
	if l.i == 0 {
		p.WaitGEThen(c, 1, l.stepFn)
		return
	}
	p.WaitGEThen(c, 1, l.stepFn)
}

// Disarming first makes later frame writes legal again.
func cleanDisarmedWrite(p *Proc, fn func()) {
	p.armed = true
	p.armed = false
	p.cont = fn
}

// Registration with the named transcription is the sanctioned form.
func cleanRegistration() {
	RegisterProgBcast("bcast", progBody)
}

// progBody is the single named transcription both modes share.
func progBody(p *Proc) { _ = p }
