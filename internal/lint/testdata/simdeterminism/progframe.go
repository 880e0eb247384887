package coll

// Proc stands in for sim.Proc: the analyzer recognizes the program frame by
// field name on any Proc type declared in a simulator-driven package, so the
// fixture does not need to import the real kernel.
type Proc struct {
	cont   func()
	armed  bool
	inline bool
}

// Reading frame state is fine — the kernel's fingerprint walk does.
func cleanFrameRead(p *Proc) bool { return p.inline && p.armed }

// Writing it outside sim/program.go detaches a pending resume from the queue
// position the kernel owes it.
func flaggedFrameWrites(p *Proc, k func()) {
	p.cont = k      // want `direct mutation of Proc program frame field cont outside kernel execution`
	p.armed = true  // want `direct mutation of Proc program frame field armed outside kernel execution`
	p.inline = true // want `direct mutation of Proc program frame field inline outside kernel execution`
}
