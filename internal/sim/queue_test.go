package sim

import (
	"cmp"
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

// TestRadixQueueMatchesModel drives the queue and the reference model with
// the same seeded random operation stream — interleaved pushes and pops,
// pending-item listings, uniform shifts with bucket 0 half drained, and
// resets — and requires every popped item, every advance decision, and the
// pending-item listing to agree.
func TestRadixQueueMatchesModel(t *testing.T) {
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
				for i := 0; i < burst; i++ {
					tt := q.last + queueOffset(rng, shape, offsets)
					q.push(tt, entry{kind: eFn, idx: m.push(tt)})
				}
			case r < 80:
				if q.ready() {
					popOne(op)
				} else if q.advance() {
					popOne(op)
				} else if len(m.items) != 0 {
					t.Fatalf("seed %d op %d: advance refused with %d items pending", seed, op, len(m.items))
				}
			case r < 95:
				checkPending(op)
			case r < 98:
				d := Time(1 + rng.Int63n(1<<30))
				q.shiftAll(d)
				for i := range m.items {
					m.items[i].t += d
				}
			default:
				if rng.Intn(4) == 0 {
					// Reset only ever follows a drained run; a reused
					// queue must then behave like a fresh one.
					for q.ready() || q.advance() {
						popOne(op)
					}
					if len(m.items) != 0 {
						t.Fatalf("seed %d op %d: queue drained with %d model items left", seed, op, len(m.items))
					}
					q.reset()
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
}

// TestRadixQueuePushNotAfterClockPanics checks the monotone precondition is
// enforced: a push at or before the clock belongs on the run ring.
func TestRadixQueuePushNotAfterClockPanics(t *testing.T) {
	var q radixQueue
	q.push(10, entry{kind: eFn})
	if !q.advance() {
		t.Fatal("advance refused")
	}
	expectPanic(t, "not after clock", func() { q.push(10, entry{kind: eFn}) })
	expectPanic(t, "not after clock", func() { q.push(9, entry{kind: eFn}) })
}
