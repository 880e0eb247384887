package mpi

import (
	"strings"
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// TestBarrierHalfArrivedRefusesCapture checks the world fingerprint refuses
// while some ranks wait at a barrier others have not reached, and accepts
// once it has released.
func TestBarrierHalfArrivedRefusesCapture(t *testing.T) {
	w := newWorld(t, smallConfig())
	k := w.M.K
	det := sim.NewSteady(k, w.SteadyState)
	var during, after string
	late := sim.Microsecond
	k.At(late/2, func() {
		det.Capture()
		during = det.LastRefusal()
		k.At(late+w.M.Cfg.Params.BarrierLatency+late/2, func() {
			det.Capture()
			after = det.LastRefusal()
		})
	})
	_, err := w.RunProgram(func(r *Rank) {
		arrive := func() { r.BarrierThen(func() { r.Proc().SleepThen(late, nop) }) }
		if r.Rank() == 0 {
			r.Proc().SleepThen(late, arrive)
			return
		}
		arrive()
	})
	if err != nil {
		t.Fatal(err)
	}
	if during != "barrier half-arrived" {
		t.Fatalf("capture during the barrier: refusal %q, want %q", during, "barrier half-arrived")
	}
	if after != "" {
		t.Fatalf("capture after the barrier released: refusal %q, want none", after)
	}
}

// barrierExits runs rounds staggered barriers on w and returns every rank's
// exit times, in rank order.
func barrierExits(t *testing.T, w *World, rounds int) [][]sim.Time {
	t.Helper()
	exits := make([][]sim.Time, w.Size())
	_, err := w.RunProgram(func(r *Rank) {
		var round func()
		round = func() {
			exits[r.Rank()] = append(exits[r.Rank()], r.Now())
			if len(exits[r.Rank()]) > rounds {
				return
			}
			// Rotate the last arrival across ranks and rounds.
			d := sim.Time((r.Rank()+len(exits[r.Rank()]))%w.Size()) * sim.Nanosecond
			r.Proc().SleepThen(d, func() { r.BarrierThen(round) })
		}
		r.Proc().SleepThen(0, round)
	})
	if err != nil {
		t.Fatal(err)
	}
	return exits
}

func equalExits(a, b [][]sim.Time) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestBarrierStateReuse checks barrier states recycle through the world's
// free list across runs, Reset and Reconfigure: one state serves every
// barrier of a world, none stays live after a run, and the exit times
// equal a fresh world's.
func TestBarrierStateReuse(t *testing.T) {
	quad := smallConfig()
	smp := smallConfig()
	smp.Mode = hw.SMP
	smp.Torus = geometry.Torus{DX: 2, DY: 2, DZ: 2}
	fresh := func(cfg hw.Config) [][]sim.Time { return barrierExits(t, newWorld(t, cfg), 4) }
	wantQuad, wantSMP := fresh(quad), fresh(smp)

	w := newWorld(t, quad)
	var st *barrierState
	check := func(step string, got, want [][]sim.Time) {
		t.Helper()
		if !equalExits(got, want) {
			t.Fatalf("%s: exit times differ from a fresh world's", step)
		}
		s := w.scratch
		if len(s.barriers) != 0 || len(s.barrierFree) != 1 {
			t.Fatalf("%s: %d live, %d free barrier states, want 0 and 1", step, len(s.barriers), len(s.barrierFree))
		}
		if st == nil {
			st = s.barrierFree[0]
		} else if s.barrierFree[0] != st {
			t.Fatalf("%s: barrier state not reused", step)
		}
		if st.release != nil {
			t.Fatalf("%s: free barrier state keeps its release counter", step)
		}
	}
	check("first run", barrierExits(t, w, 4), wantQuad)
	w.Reset()
	check("after Reset", barrierExits(t, w, 4), wantQuad)
	if err := w.Reconfigure(smp); err != nil {
		t.Fatal(err)
	}
	check("after Reconfigure to SMP", barrierExits(t, w, 4), wantSMP)
	if err := w.Reconfigure(quad); err != nil {
		t.Fatal(err)
	}
	check("after Reconfigure back", barrierExits(t, w, 4), wantQuad)
}

// TestBarrierDeadlockNamesEvent checks a barrier one rank never reaches
// reports its one-shot release counter by the name it has always had.
func TestBarrierDeadlockNamesEvent(t *testing.T) {
	w := newWorld(t, smallConfig())
	_, err := w.RunProgram(func(r *Rank) {
		if r.Rank() != 3 {
			r.BarrierThen(nop)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "rank0(counter:barrier1>=1)") {
		t.Fatalf("deadlock report %v does not name counter barrier1", err)
	}
}

// barrierLoop runs one rank's repeated barriers with a continuation bound
// once, so the benchmark times the barrier rather than closure allocation.
type barrierLoop struct {
	r    *Rank
	left int
	fn   func()
}

func (l *barrierLoop) next() {
	if l.left == 0 {
		return
	}
	l.left--
	l.r.BarrierThen(l.fn)
}

// BenchmarkBarrier times repeated BarrierThen on an 8192-rank quad world
// (16x16x8 nodes) run as inline programs, the per-call path of every
// measure loop. One op is one RunProgram of eight barriers.
func BenchmarkBarrier(b *testing.B) {
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: 16, DY: 16, DZ: 8}
	cfg.Functional = false
	w, err := NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 8
	loops := make([]barrierLoop, w.Size())
	for i := range loops {
		loops[i].fn = loops[i].next
	}
	body := func(r *Rank) {
		l := &loops[r.Rank()]
		l.r, l.left = r, rounds
		l.next()
	}
	// One untimed run warms the world (arena slabs, per-world scratch), so
	// allocs/op reads the steady per-run cost at every b.N.
	if _, err := w.RunProgram(body); err != nil {
		b.Fatal(err)
	}
	w.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.RunProgram(body); err != nil {
			b.Fatal(err)
		}
		w.Reset()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w.Size()*rounds), "ns/rank-barrier")
}
