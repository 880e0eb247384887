package coll

import (
	"encoding/binary"
	"hash/fnv"
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

// finishDigest hashes every rank's finish instants, rank by rank, so a
// skew test pins virtual time and not only the payload bytes.
func finishDigest(fin [][]sim.Time) uint64 {
	h := fnv.New64a()
	for _, ts := range fin {
		for _, at := range ts {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(at)))
		}
	}
	return h.Sum64()
}

// The finish-instant digests of the skew tests. A direct-put peer that
// enters after part or all of its payload has landed must still finish at
// these instants.
var (
	bcastSkewDigest = map[string]uint64{
		mpi.BcastTorusDirectPut: 0x22d725e7d686eca7,
		mpi.BcastTorusShaddr:    0x97e8365973b93656,
		mpi.BcastTorusFIFO:      0xd2b28d1c9b57f075,
		mpi.BcastTreeShmem:      0x7fc838d0ff996904,
		mpi.BcastTreeDMAFIFO:    0xcb0a578ea5e6a525,
		mpi.BcastTreeDMADirect:  0x7ce4c39eecb90745,
		mpi.BcastTreeShaddr:     0xe0a3d8d88ae1dcc0,
	}
	allreduceSkewDigest = map[string]uint64{
		mpi.AllreduceTorusNew:     0xf06ab36f61b1d214,
		mpi.AllreduceTorusCurrent: 0xe63aac6ef890d717,
	}
)

// treeSkewRootDigest pins the tree broadcasts with a non-master root, rank 5
// (node 1, local rank 1): the root waits on its node's counters like a peer,
// but copies nothing, and its node's injector starts only once the root has
// entered, which here is after every other node's injector.
var treeSkewRootDigest = map[string]uint64{
	mpi.BcastTreeShmem:     0x44cd3a41cb882e5c,
	mpi.BcastTreeDMAFIFO:   0x4c472deea808e13e,
	mpi.BcastTreeDMADirect: 0x9a8b6ceb7edf0b85,
	mpi.BcastTreeShaddr:    0xfa4f75c795a95205,
}

func TestBcastWithArrivalSkew(t *testing.T) {
	cfg := testConfig(2, 2, 2, hw.Quad)
	for _, algo := range quadBcastAlgos {
		t.Run(algo, func(t *testing.T) {
			skewBcast(t, cfg, algo, 0, bcastSkewDigest[algo])
			if want, ok := treeSkewRootDigest[algo]; ok {
				skewBcast(t, cfg, algo, 5, want)
			}
		})
	}
}

// skewBcast runs three skewed broadcasts from root and checks every payload
// and the digest of every rank's finish instants.
func skewBcast(t *testing.T, cfg hw.Config, algo string, root int, digest uint64) {
	t.Helper()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Tunables.Bcast = algo
	const msg = 48 << 10
	fin := make([][]sim.Time, cfg.Ranks())
	if _, err := w.Run(func(r *mpi.Rank) {
		for round := 0; round < 3; round++ {
			r.Proc().SleepThen(skew(r.Rank(), round, 200), func() {})
			buf := r.NewBuf(msg)
			if r.Rank() == root {
				buf.Fill(uint64(round) + 11)
			}
			r.Bcast(buf, root)
			fin[r.Rank()] = append(fin[r.Rank()], r.Now())
			want := data.New(msg, true)
			want.Fill(uint64(round) + 11)
			if !data.Equal(buf, want) {
				t.Errorf("root %d round %d: rank %d corrupted under skew", root, round, r.Rank())
			}
			r.Barrier()
		}
	}); err != nil {
		t.Fatalf("root %d: %v", root, err)
	}
	if got := finishDigest(fin); got != digest {
		t.Errorf("root %d: finish instants digest %#x, want %#x", root, got, digest)
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
		fin := make([][]sim.Time, size)
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
			fin[r.Rank()] = append(fin[r.Rank()], r.Now())
			want := float64(size*(size+1)) / 2
			if got := recv.Floats()[0]; got != want {
				t.Errorf("%s: rank %d sum %v under skew, want %v", algo, r.Rank(), got, want)
			}
		}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := finishDigest(fin); got != allreduceSkewDigest[algo] {
			t.Errorf("%s: finish instants digest %#x, want %#x", algo, got, allreduceSkewDigest[algo])
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
