package bench

// The worldpool.go exemption is file-specific: the same operations in any
// sibling file of the bench package are flagged.

func sneakyReset(w *World) {
	w.Reset() // want `world Reset outside a sanctioned reset/lease site`
}

var escapedProc *Proc // want `package-level variable escapedProc can retain an arena-carved sim handle across a world Reset; keep per-run handles in the world's scratch \(mpi.NewScratchKey, World.Scratch\)`
