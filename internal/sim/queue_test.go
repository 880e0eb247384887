package sim

import (
	"cmp"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// queueModel is the trivially correct reference for radixQueue: every
// pending item with its push sequence number, kept sorted by (t, seq). Seqs
// only grow, so a push goes after every item at or before its time.
type queueModel struct {
	items []modelItem
	seq   uint32
}

type modelItem struct {
	t   Time
	seq uint32
}

func (m *queueModel) push(t Time) uint32 {
	m.seq++
	i, _ := slices.BinarySearchFunc(m.items, t+1, func(x modelItem, t Time) int { return cmp.Compare(x.t, t) })
	m.items = slices.Insert(m.items, i, modelItem{t, m.seq})
	return m.seq
}

func (m *queueModel) popMin() modelItem {
	it := m.items[0]
	m.items = m.items[1:]
	return it
}

// queueOffset draws a push offset (> 0) from one of several traffic shapes:
// a few shared target times (the interleaved collective pattern that
// thrashes a same-instant batch cache), narrow spreads, wide spreads that
// exercise the high buckets, and spreads past the top bucket's range.
func queueOffset(rng *rand.Rand, shape int, offsets []Time) Time {
	switch shape {
	case 0:
		return offsets[rng.Intn(len(offsets))]
	case 1:
		return Time(1 + rng.Intn(8))
	case 2:
		return Time(1 + rng.Int63n(1<<40))
	case 3:
		return Time(1 + rng.Int63n(1<<50))
	default:
		return Time(1 + rng.Intn(1<<12))
	}
}

// qblocksHeld counts the blocks a queue holds, on its buckets' chains and
// its free list, and the buckets that hold one.
func qblocksHeld(q *radixQueue) (blocks, buckets int) {
	for b := q.free; b != nil; b = b.next {
		blocks++
	}
	for _, bk := range q.b {
		if bk.first != nil {
			buckets++
		}
		for b := bk.first; b != nil; b = b.next {
			blocks++
		}
	}
	return blocks, buckets
}

// multiBlock reports whether some bucket of q spans more than one block.
func multiBlock(q *radixQueue) bool {
	for m := q.mask; m != 0; m &= m - 1 {
		if bk := q.b[bits.TrailingZeros64(m)]; bk.first != bk.tail {
			return true
		}
	}
	return false
}

// TestRadixQueueMatchesModel drives the queue and the reference model with
// the same seeded random operation stream — interleaved pushes and pops,
// pending-item listings, uniform shifts with bucket 0 half drained, and
// resets of drained and of loaded queues — and requires every popped item,
// every advance decision, and the pending-item listing to agree. Bursts
// longer than a block make buckets span several blocks, so the stream also
// covers block hops, the top bucket refiling into itself across blocks, and
// shifts and resets of multi-block buckets; the test fails if any of those
// never happened.
func TestRadixQueueMatchesModel(t *testing.T) {
	var hops, topRefiles, multiShifts, multiResets int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q radixQueue
		var m queueModel
		offsets := make([]Time, 3+rng.Intn(3))
		for i := range offsets {
			offsets[i] = Time(1 + rng.Intn(1<<16))
		}
		shape := rng.Intn(5)
		pops := 0

		// The fingerprint walk's view: pending items stable-sorted by time
		// list exactly the model's (t, seq) sequence.
		checkPending := func(op int) {
			p := q.pending(nil)
			slices.SortStableFunc(p, func(a, b qitem) int { return cmp.Compare(a.t, b.t) })
			if len(p) != len(m.items) {
				t.Fatalf("seed %d op %d: %d pending items, model has %d", seed, op, len(p), len(m.items))
			}
			for i, it := range p {
				if w := m.items[i]; it.t != w.t || it.e.idx != w.seq {
					t.Fatalf("seed %d op %d: pending[%d] = (%v, %d) want (%v, %d)", seed, op, i, it.t, it.e.idx, w.t, w.seq)
				}
			}
		}
		popOne := func(op int) {
			want := m.popMin()
			if want.t != q.last {
				t.Fatalf("seed %d op %d: next item at %v but queue clock is %v", seed, op, want.t, q.last)
			}
			if got := q.pop(); got.idx != want.seq {
				t.Fatalf("seed %d op %d: popped seq %d want %d (t=%v)", seed, op, got.idx, want.seq, want.t)
			}
			pops++
		}

		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 45:
				if rng.Intn(10) == 0 {
					shape = rng.Intn(5)
				}
				burst := 1 + rng.Intn(16)
				if rng.Intn(16) == 0 {
					burst = 1 + rng.Intn(3*qBlock)
				}
				for i := 0; i < burst; i++ {
					tt := q.last + queueOffset(rng, shape, offsets)
					q.push(tt, entry{kind: eHook, idx: m.push(tt)})
				}
			case r < 80:
				for n := 1 + rng.Intn(128); n > 0; n-- {
					if q.ready() {
						popOne(op)
						continue
					}
					// Count the refiles of multi-block buckets: a lower
					// bucket's hop, or the top bucket refiling into itself.
					i := min(bits.TrailingZeros64(q.mask), qBuckets-1)
					multi := q.b[i].first != q.b[i].tail
					if q.advance() {
						switch {
						case !multi:
						case i < qBuckets-1:
							hops++
						case q.mask&(1<<i) != 0:
							topRefiles++
						}
						popOne(op)
					} else if len(m.items) != 0 {
						t.Fatalf("seed %d op %d: advance refused with %d items pending", seed, op, len(m.items))
					} else {
						break
					}
				}
			case r < 95:
				checkPending(op)
			case r < 98:
				d := Time(1 + rng.Int63n(1<<30))
				if multiBlock(&q) {
					multiShifts++
				}
				q.shiftAll(d)
				for i := range m.items {
					m.items[i].t += d
				}
			default:
				if rng.Intn(4) == 0 {
					// A kernel resets only after a drained run, but the
					// queue's reset empties a loaded queue too; either way
					// the reused queue must behave like a fresh one.
					if rng.Intn(2) == 0 {
						for q.ready() || q.advance() {
							popOne(op)
						}
						if len(m.items) != 0 {
							t.Fatalf("seed %d op %d: queue drained with %d model items left", seed, op, len(m.items))
						}
					} else if multiBlock(&q) {
						multiResets++
					}
					held, _ := qblocksHeld(&q)
					q.reset()
					if got, _ := qblocksHeld(&q); got != held {
						t.Fatalf("seed %d op %d: reset left %d blocks, held %d", seed, op, got, held)
					}
					m = queueModel{seq: m.seq}
				}
			}
		}
		for q.ready() || q.advance() {
			popOne(-1)
		}
		if len(m.items) != 0 {
			t.Fatalf("seed %d: queue empty with %d model items left", seed, len(m.items))
		}
		if pops == 0 {
			t.Fatalf("seed %d: no pops exercised", seed)
		}
	}
	t.Logf("multi-block bucket hops %d, top refiles %d, shifts %d, resets %d", hops, topRefiles, multiShifts, multiResets)
	if hops == 0 || topRefiles == 0 || multiShifts == 0 || multiResets == 0 {
		t.Fatalf("multi-block paths not exercised: hops %d, top refiles %d, shifts %d, resets %d", hops, topRefiles, multiShifts, multiResets)
	}
}

// TestRadixQueuePushNotAfterClockPanics checks the monotone precondition is
// enforced: a push at or before the clock belongs on the run ring.
func TestRadixQueuePushNotAfterClockPanics(t *testing.T) {
	var q radixQueue
	q.push(10, entry{kind: eHook})
	if !q.advance() {
		t.Fatal("advance refused")
	}
	expectPanic(t, "not after clock", func() { q.push(10, entry{kind: eHook}) })
	expectPanic(t, "not after clock", func() { q.push(9, entry{kind: eHook}) })
}

// TestRadixQueueBlocksTrackPending checks what the queue's block storage
// holds. A burst of same-instant entries, pushed below a ladder of earlier
// markers in its bucket, hops down one level per marker. Each bucket it
// passes keeps one block, and past those the blocks held stay at most
// ceil(peak pending / qBlock), where a queue that grew each bucket to its
// largest burst would hold the burst once per level. A Reset kernel running
// the same burst keeps that bound, and a kernel that never schedules holds
// no blocks.
func TestRadixQueueBlocksTrackPending(t *testing.T) {
	k := New()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n, _ := qblocksHeld(&k.queue); n != 0 {
		t.Fatalf("a kernel that never scheduled holds %d blocks", n)
	}

	const (
		burst   = 10*qBlock + 17
		markers = 39
		at      = Time(1<<40 - 1)
	)
	levels := map[int]bool{}
	observe := func() { levels[k.queue.bucket(at)] = true }
	for round := 0; round < 2; round++ {
		if round == 1 {
			k.Reset()
		}
		for range burst {
			k.At(at, nop)
		}
		for l := markers; l >= 1; l-- {
			k.At(at&^(1<<l-1), observe)
		}
		observe()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(levels) < markers {
			t.Fatalf("round %d: the burst passed through %d levels, want %d", round, len(levels), markers)
		}
		blocks, buckets := qblocksHeld(&k.queue)
		if bound := (burst+markers+qBlock-1)/qBlock + buckets; blocks > bound {
			t.Fatalf("round %d: %d blocks held by %d buckets, want at most %d", round, blocks, buckets, bound)
		}
		t.Logf("round %d: %d blocks held by %d buckets", round, blocks, buckets)
	}
}

// TestAtBurstAllocationFree checks that a warmed kernel runs fig7's burst
// shape (BenchmarkAtBurst) without allocating: blocks come back from the
// free list and the tables and bucket 0 keep their capacity across Reset.
func TestAtBurstAllocationFree(t *testing.T) {
	s := &burst{k: New()}
	round := func() {
		s.k.Reset()
		if err := s.run(40 * burstProducers); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if got := testing.AllocsPerRun(5, round); got > 0 {
		t.Fatalf("warmed burst run allocates %v times, want 0", got)
	}
}
