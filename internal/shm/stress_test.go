package shm

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Race-targeted stress tests for the lock-free FIFOs: many producers and
// contended consumers hammering small FIFOs across several GOMAXPROCS
// settings, so `go test -race ./internal/shm/...` exercises the
// publication (seq store) and reclamation (reader countdown / head CAS)
// edges under real preemption. Skipped in -short mode to keep quick runs
// fast; CI runs them with the race detector enabled.

var stressProcs = []int{1, 2, 4, 8}

// TestBcastFIFORaceStress drives one producer against the full reader set:
// every reader must see every item exactly once, in order, with intact
// payload bytes, while slots are recycled under contention.
func TestBcastFIFORaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const (
		items    = 400
		nReaders = 4
		slots    = 8
	)
	for _, procs := range stressProcs {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f := NewBcastFIFO(slots, 8, nReaders)
			var wg sync.WaitGroup
			errs := make(chan error, nReaders)
			for r := 0; r < nReaders; r++ {
				rd := f.NewReader()
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					buf := make([]byte, f.SlotBytes())
					for i := 0; i < items; i++ {
						n, conn, ok := 0, 0, false
						for !ok {
							n, conn, ok = rd.TryReadInto(buf)
							if !ok {
								runtime.Gosched()
							}
						}
						if conn != i {
							errs <- fmt.Errorf("reader %d: item %d arrived as connection %d", id, i, conn)
							return
						}
						if n != 8 || binary.LittleEndian.Uint64(buf) != uint64(i) {
							errs <- fmt.Errorf("reader %d: item %d payload corrupted", id, i)
							return
						}
					}
				}(r)
			}
			payload := make([]byte, 8)
			for i := 0; i < items; i++ {
				binary.LittleEndian.PutUint64(payload, uint64(i))
				f.Enqueue(payload, i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestPtPFIFORaceStress drives several producers against several contended
// consumers: the union of everything dequeued must be exactly the multiset
// enqueued (each item exactly once), regardless of interleaving.
func TestPtPFIFORaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const (
		producers   = 4
		consumers   = 4
		perProducer = 250
		slots       = 8
		totalItems  = producers * perProducer
	)
	for _, procs := range stressProcs {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f := NewPtPFIFO(slots)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						f.Enqueue(Message{Connection: p*perProducer + i})
					}
				}(p)
			}
			got := make([][]int, consumers)
			var cwg sync.WaitGroup
			var claimed [totalItems]int32 // how many consumers saw each item
			var taken counterT
			for cidx := 0; cidx < consumers; cidx++ {
				cwg.Add(1)
				go func(cidx int) {
					defer cwg.Done()
					for {
						if taken.add(1) > totalItems {
							return
						}
						msg := f.Dequeue()
						got[cidx] = append(got[cidx], msg.Connection)
					}
				}(cidx)
			}
			wg.Wait()
			cwg.Wait()
			for cidx, items := range got {
				for _, conn := range items {
					if conn < 0 || conn >= totalItems {
						t.Fatalf("consumer %d: out-of-range item %d", cidx, conn)
					}
					claimed[conn]++
				}
			}
			for conn, n := range claimed {
				if n != 1 {
					t.Errorf("item %d consumed %d times, want exactly once", conn, n)
				}
			}
		})
	}
}

// counterT is a tiny atomic ticket counter for the consumer side of the
// stress test (kept local to avoid polluting the package API). add is one
// fetch-and-add, so every consumer draws a distinct ticket; a separate add
// and load would let two consumers read the same ticket and skip one, and
// the consumers would stop one item short.
type counterT struct{ c atomic.Int64 }

func (t *counterT) add(n int) int64 { return t.c.Add(int64(n)) }
