package coll

// A Reset method on a type outside the world-holding set is an ordinary
// operation: rewinding an algorithm's own tally mid-run is not a world
// Reset, and any algorithm may call it.
type PumpCounter struct{ n int64 }

func (c *PumpCounter) Reset() { c.n = 0 }

func rewindCounter(c *PumpCounter) {
	c.Reset() // ok: not a world-holding type
}

// Declaring a Reset method is not calling one: the receiver's own file
// defines the rewind, the lint restricts who invokes it.

// Locals die with the run, so holding handles in them is fine.
func localHandles(p *Proc, c *Counter) int64 {
	pending := []*Proc{p}
	_ = pending
	return c.n
}

// Package-level state without sim handles is fine: registries of algorithm
// functions, thresholds, labels.
var algorithmNames = map[string]string{"shaddr": "CollectiveNetwork+Shaddr"}

var chunkThreshold = 1 << 16

// Function-typed state is opaque to the checker (captures are invisible);
// the runtime epoch check is the backstop there.
var defaultDone func()
