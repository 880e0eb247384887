package coll

// Stand-ins for the world-holding types: the analyzer matches Reset by
// receiver type name within a simulator-driven package, exactly like the
// program-frame rule, so the fixture needs no imports.

type Kernel struct{ epoch uint32 }

func (k *Kernel) Reset() { k.epoch++ }

type Machine struct{ K *Kernel }

// The real Machine.Reset forwards to K.Reset from the sanctioned
// machine/reset.go; here the forwarding call would itself be flagged, so the
// stand-ins rewind directly.
func (m *Machine) Reset() { m.K = nil }

type World struct{ M *Machine }

func (w *World) Reset() { w.M = nil }

type Process struct{ mapped int }

func (p *Process) Reset() { p.mapped = 0 }

type Network struct{ ops int }

func (n *Network) Reset() { n.ops = 0 }

// Stand-ins for the arena-carved handle types.
type Counter struct{ n int64 }
type Proc struct{ idx uint32 }

// Calling Reset on any world-holding type outside a sanctioned site is
// flagged: this package must lease worlds through the bench pool.
func resetEverything(k *Kernel, m *Machine, w *World, p *Process, n *Network) {
	k.Reset() // want `world Reset outside a sanctioned reset/lease site`
	m.Reset() // want `world Reset outside a sanctioned reset/lease site`
	w.Reset() // want `world Reset outside a sanctioned reset/lease site`
	p.Reset() // want `world Reset outside a sanctioned reset/lease site`
	n.Reset() // want `world Reset outside a sanctioned reset/lease site`
}

// Nested closures are not a loophole.
func resetInClosure(w *World) func() {
	return func() {
		w.Reset() // want `world Reset outside a sanctioned reset/lease site`
	}
}

// Package-level variables reaching a handle type are flagged: they outlive
// the run that carved the handle.
var staleCounters []*Counter            // want `package-level variable staleCounters can retain an arena-carved sim handle across a world Reset; keep per-run handles in the world's scratch \(mpi.NewScratchKey, World.Scratch\) or in locals`
var staleProcByRank map[int]*Proc       // want `package-level variable staleProcByRank can retain an arena-carved sim handle`
var staleValue Counter                  // want `package-level variable staleValue can retain an arena-carved sim handle`
var staleNested struct{ done *Counter } // want `package-level variable staleNested can retain an arena-carved sim handle`
var staleCache = map[string][]*Proc{}   // want `package-level variable staleCache can retain an arena-carved sim handle`
