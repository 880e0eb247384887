package sim

// This file mirrors the sanctioned launch site internal/sim/proc.go: the
// analyzer exempts go statements here (and only here), because SpawnIdx
// launches the goroutine backing each Kernel.Spawn coroutine and that
// goroutine only executes simulation code while holding the virtual-CPU
// token.
type proc struct {
	gate chan struct{}
}

func sanctionedSpawn(fn func(*proc)) *proc {
	p := &proc{gate: make(chan struct{})}
	go func() {
		<-p.gate
		fn(p)
	}()
	return p
}
