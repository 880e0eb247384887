// Package coll implements every collective algorithm the paper describes —
// the current production algorithms and the proposed shared-memory,
// shared-address, and core-specialization designs — on top of the ccmi
// schedules and the mpi runtime.
//
// Broadcast over the collective (tree) network (§V-B):
//
//	tree.smp        SMP mode: main thread injects, helper thread receives.
//	tree.shmem      quad: one master core injects and receives into a shared
//	                segment; peers copy out. Latency-optimized.
//	tree.dmafifo    quad: master core injects/receives; the DMA moves data to
//	                per-core memory FIFOs; peers copy FIFO -> buffer.
//	tree.dmadirect  quad: as dmafifo but the DMA direct-puts into the peers'
//	                application buffers.
//	tree.shaddr     quad: core specialization — local rank 0 injects, rank 1
//	                receives into its application buffer, ranks 2 and 3 copy
//	                through process windows, rank 2 additionally fills rank
//	                0's buffer (the injector has no cycles to copy).
//
// Broadcast over the torus (§V-A):
//
//	torus.directput  the DMA moves data over the network and, in quad mode,
//	                 as the spanning tree's intra-node fourth dimension.
//	torus.fifo       quad: the master enqueues received chunks into the
//	                 concurrent Bcast FIFO; peers dequeue.
//	torus.shaddr     quad: the master receives into its application buffer
//	                 and mirrors the DMA byte counters into software message
//	                 counters; peers copy arrived ranges directly.
//
// Allreduce over the torus (§V-C):
//
//	allreduce.current  local reduce and local broadcast move every buffer
//	                   through the DMA, and the master core performs both
//	                   the local reduction and the network protocol.
//	allreduce.shaddr   core specialization: cores 1-3 locally reduce and
//	                   later copy out one color partition each through
//	                   process windows; core 0 runs only the network
//	                   protocol.
//
// Extensions (the paper's future work, §VII):
//
//	gather.torus     every rank sends its block to the root over the
//	                 point-to-point substrate.
//	allgather.torus  gather to rank 0, then the optimized broadcast.
//	allgather.ring   P-1 ring Sendrecv steps.
//	reduce.torus     the allreduce.shaddr state machine with a reduce-only
//	                 ending: no broadcast-down phase, only the root drains.
//	scatter.torus    the root streams each block with nonblocking sends.
//	alltoall.torus   pairwise-exchange ring of Sendrecv steps.
//
// Every algorithm is one explicit-resume (program) body registered through
// mpi.RegisterProg*; the blocking entry points are derived from it, so
// inline program ranks and goroutine-backed ranks run the same code.
//
// Functional correctness is handled uniformly: timing-relevant copies are
// charged where the paper's design performs them, while each rank installs
// the actual payload bytes from the authoritative source buffer when its
// participation completes (equivalent content, zero additional virtual
// time). The ccmi tests verify span-exact data plumbing at the network
// layer.
package coll
