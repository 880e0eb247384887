// Package mpi is the MPI-like runtime and API of the simulated stack: it
// plays the role MPICH plays on the real machine, glued over the messaging
// substrates the way the paper's implementation is glued over DCMF/CCMI.
//
// A World launches one simulated process per MPI rank (quad mode: four ranks
// per node, each owning one PowerPC core). Rank programs are Go functions
// receiving a *Rank, whose methods provide the MPI surface: Bcast,
// AllreduceSum, Barrier, Send/Recv/Sendrecv, Isend/Irecv, Gather,
// Allgather, ReduceSum, Scatter, Alltoall. Every operation has an
// explicit-resume form (BcastThen, SendThen, Request.WaitThen, ...) that
// takes the rest of the rank's body as a continuation; World.RunProgram
// runs such bodies inline, without a goroutine per rank. The blocking
// methods, for World.Run bodies on goroutine-backed ranks, are the *Then
// forms called with a no-op continuation.
//
// Collective algorithm implementations live in package coll and register
// themselves by name; Tunables select an algorithm explicitly or leave the
// runtime to choose by message size and operating mode, mirroring how CCMI
// registries select protocols on BG/P.
//
// Ranks coordinate through shared per-operation state (counters, FIFOs)
// that the collective packages keep on the world (World.Scratch):
// the first rank to reach a collective arms a recycled state, the others
// find it by their collective sequence number (Rank.NextSeq), and the last
// to finish releases it — the simulated equivalent of the pre-agreed
// shared-memory segments and process windows on a real node.
package mpi
