package sim

// Program-mode execution is the whole point of goroutine-free ranks: inline
// programs resume as queue callbacks on the kernel's own stack. The surviving
// sanctioned launch sites are exactly proc.go (here) and parallel.go (bench);
// kernel execution code gaining a go statement must be flagged.
func spawnFromProgramCode(fn func()) {
	go fn() // want `raw go statement in a simulator-driven package`
}
