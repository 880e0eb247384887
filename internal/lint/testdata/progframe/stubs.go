package coll

// Fixture stand-ins for the sim program-mode API: a Counter, a Proc carrying
// a resumable program frame, and a parking WaitGEThen operation. They are
// declared locally so the package type-checks standalone; the analyzer
// recognizes them because the fixture is loaded under a simulator-driven
// import path and the shapes match (a *Then op with a trailing func()
// continuation, a Proc type with program-frame fields).

// Counter is the fixture's completion counter.
type Counter struct{ v int64 }

// Add bumps the counter.
func (c *Counter) Add(n int64) { c.v += n }

// Proc carries the resumable program frame.
type Proc struct {
	cont  func()
	armed bool
}

// WaitGEThen parks the program until c reaches v, then resumes fn.
func (p *Proc) WaitGEThen(c *Counter, v int64, fn func()) {
	p.cont = fn
	p.armed = true
}

// RegisterProgBcast registers a program-mode transcription.
func RegisterProgBcast(name string, fn func(*Proc)) { _, _ = name, fn }
