package coll

import (
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// skew returns a deterministic pseudo-random entry delay for a rank, up to
// maxUS microseconds. Collectives must tolerate ranks arriving at different
// times (no barrier inside MPI_Bcast/MPI_Allreduce semantics).
func skew(rank, round int, maxUS int64) sim.Time {
	x := uint64(rank*2654435761) ^ uint64(round*40503)
	x ^= x >> 13
	x *= 2685821657736338717
	x ^= x >> 37
	return sim.Time(int64(x%uint64(maxUS))) * sim.Microsecond
}

func TestBcastWithArrivalSkew(t *testing.T) {
	cfg := testConfig(2, 2, 2, hw.Quad)
	for _, algo := range quadBcastAlgos {
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Tunables.Bcast = algo
		const msg = 48 << 10
		if _, err := w.Run(func(r *mpi.Rank) {
			for round := 0; round < 3; round++ {
				r.Proc().SleepThen(skew(r.Rank(), round, 200), func() {})
				buf := r.NewBuf(msg)
				if r.Rank() == 0 {
					buf.Fill(uint64(round) + 11)
				}
				r.Bcast(buf, 0)
				want := data.New(msg, true)
				want.Fill(uint64(round) + 11)
				if !data.Equal(buf, want) {
					t.Errorf("%s round %d: rank %d corrupted under skew", algo, round, r.Rank())
				}
				r.Barrier()
			}
		}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

func TestAllreduceWithArrivalSkew(t *testing.T) {
	cfg := testConfig(2, 2, 2, hw.Quad)
	for _, algo := range []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent} {
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w.Tunables.Allreduce = algo
		const doubles = 512
		size := cfg.Ranks()
		if _, err := w.Run(func(r *mpi.Rank) {
			r.Proc().SleepThen(skew(r.Rank(), 7, 300), func() {})
			send := r.NewBuf(doubles * data.Float64Len)
			recv := r.NewBuf(doubles * data.Float64Len)
			vals := make([]float64, doubles)
			for i := range vals {
				vals[i] = float64(r.Rank() + 1)
			}
			send.PutFloats(vals)
			r.AllreduceSum(send, recv)
			want := float64(size*(size+1)) / 2
			if got := recv.Floats()[0]; got != want {
				t.Errorf("%s: rank %d sum %v under skew, want %v", algo, r.Rank(), got, want)
			}
		}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

// TestSkewExtendsLatencyNotCorrupts: a single extreme straggler delays
// completion by roughly its lateness (collectives gate on all participants)
// without deadlock or data corruption.
func TestStragglerDominatesLatency(t *testing.T) {
	cfg := testConfig(2, 2, 1, hw.Quad)
	cfg.Functional = false
	const late = 10 * sim.Millisecond
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Tunables.Allreduce = mpi.AllreduceTorusNew
	elapsed, err := w.Run(func(r *mpi.Rank) {
		if r.Rank() == 5 {
			r.Proc().SleepThen(late, func() {})
		}
		send := r.NewBuf(1024 * data.Float64Len)
		recv := r.NewBuf(1024 * data.Float64Len)
		r.AllreduceSum(send, recv)
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < late {
		t.Fatalf("allreduce finished at %v, before the straggler arrived", elapsed)
	}
	if elapsed > late+5*sim.Millisecond {
		t.Fatalf("straggler cost %v beyond its lateness", elapsed-late)
	}
}
