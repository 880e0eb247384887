package coll

import (
	"testing"

	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// runAllreduces runs calls back-to-back allreduces of doubles on every rank
// of w and returns the finish time.
func runAllreduces(t *testing.T, w *mpi.World, calls, doubles int) sim.Time {
	t.Helper()
	end, err := w.Run(func(r *mpi.Rank) {
		send, recv := r.NewBuf(doubles*8), r.NewBuf(doubles*8)
		for i := 0; i < calls; i++ {
			r.AllreduceSum(send, recv)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestAllreducePipesRecycled pins the per-world protocol pipe sets: repeated
// allreduce runs on one pooled world register no further pipes after the
// first (each call used to adopt one fresh pipe per node, so a long-lived
// world grew without bound), a Reconfigure drops the sets with the rest of
// the device graph, and every run's virtual time equals a fresh world's.
func TestAllreducePipesRecycled(t *testing.T) {
	const calls, doubles = 3, 2048
	for _, algo := range []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent} {
		for _, mode := range []hw.Mode{hw.Quad, hw.SMP} {
			cfg := testConfig(2, 2, 2, mode)
			cfg.Functional = false
			other := testConfig(4, 2, 2, mode)
			other.Functional = false

			fresh := func(cfg hw.Config) (sim.Time, int) {
				w, err := mpi.NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				w.Tunables.Allreduce = algo
				return runAllreduces(t, w, calls, doubles), w.M.K.Pipes()
			}
			want, pipes := fresh(cfg)
			wantOther, pipesOther := fresh(other)

			w, err := mpi.NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, want sim.Time, pipes int) {
				t.Helper()
				w.Tunables.Allreduce = algo
				if got := runAllreduces(t, w, calls, doubles); got != want {
					t.Errorf("%s %s %s: finished at %v, fresh world %v", algo, mode, what, got, want)
				}
				if got := w.M.K.Pipes(); got != pipes {
					t.Errorf("%s %s %s: %d registered pipes, fresh world %d", algo, mode, what, got, pipes)
				}
			}
			check("first run", want, pipes)
			for i := 0; i < 4; i++ {
				w.Reset()
				check("pooled run", want, pipes)
			}
			if err := w.Reconfigure(other); err != nil {
				t.Fatal(err)
			}
			check("after Reconfigure", wantOther, pipesOther)
			if err := w.Reconfigure(cfg); err != nil {
				t.Fatal(err)
			}
			check("reconfigured back", want, pipes)
		}
	}
}
