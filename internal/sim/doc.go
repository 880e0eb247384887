// Package sim implements a deterministic discrete-event simulation kernel
// used to model the Blue Gene/P machine.
//
// The kernel advances a virtual clock with picosecond resolution and executes
// scheduled events in (time, sequence) order, so runs are fully deterministic.
// Simulated activities can be expressed two ways:
//
//   - Callback events, scheduled with Kernel.At or Kernel.After. These are
//     cheap and are used on hot paths such as per-chunk network arrivals.
//   - Processes (Proc): inline programs spawned with Kernel.SpawnProgram, or
//     goroutine-backed coroutines spawned with Kernel.Spawn. Exactly one
//     process runs at a time; a process yields the virtual CPU by sleeping
//     or by waiting on a Counter threshold, through one set of
//     explicit-resume operations (SleepThen, WaitGEThen, ...) shared by both
//     kinds. Processes make sequential protocol code (an MPI
//     rank, a DMA engine, a communication thread) read like the pseudo-code
//     in the paper.
//
// Shared hardware resources with finite bandwidth (a torus link, the DMA
// engine, the collective tree, a memory bus) are modeled as Pipes: serialized
// byte channels where each reservation occupies the pipe for bytes/bandwidth
// of virtual time plus a fixed latency.
//
// Counters mirror the DMA byte counters and the paper's software message
// counters: monotonically increasing values that processes can wait on until
// a threshold is reached. They are the kernel's only wait primitive: a
// one-shot occurrence is a counter fired from 0 to 1 and waited on at 1.
package sim
