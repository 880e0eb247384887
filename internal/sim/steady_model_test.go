package sim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// steadyModel is the trivially correct reference for Steady's capture
// window: the detector as it was when it kept whole captures, a rolling
// window of the maxSteadyPeriod+1 newest streams and lane arrays, newest
// first, compared byte for byte.
type steadyModel struct {
	hist     [maxSteadyPeriod + 1]modelCapture
	histN    int // valid captures behind hist[0]
	delta    Time
	period   int
	attempts int
}

type modelCapture struct {
	now   Time
	buf   []byte
	lanes []int64
}

func (m *steadyModel) rearm() {
	m.histN, m.attempts, m.delta, m.period = 0, 0, 0, 0
}

func (m *steadyModel) gaveUp() bool { return m.attempts >= maxSteadyAttempts }

func (m *steadyModel) capture(c modelCapture, refused bool) bool {
	if m.gaveUp() {
		return false
	}
	copy(m.hist[1:], m.hist[:maxSteadyPeriod])
	m.hist[0] = c
	if refused {
		m.histN = 0
		m.attempts++
		return false
	}
	valid := m.histN
	if m.histN < maxSteadyPeriod {
		m.histN++
	}
	for p := 1; p <= valid; p++ {
		prev := m.hist[p]
		if c.now > prev.now && len(c.lanes) == len(prev.lanes) && bytes.Equal(c.buf, prev.buf) {
			m.delta, m.period = c.now-prev.now, p
			return true
		}
	}
	m.attempts++
	return false
}

// forward returns each lane's extrapolated delta: reps × its growth since
// the matched capture.
func (m *steadyModel) forward(reps int64) []int64 {
	cur, matched := m.hist[0].lanes, m.hist[m.period].lanes
	d := make([]int64, len(cur))
	for i := range d {
		d[i] = reps * (cur[i] - matched[i])
	}
	return d
}

// windowBytes hands out a script's bytes, then zeros.
type windowBytes struct {
	b []byte
	i int
}

func (r *windowBytes) more() bool { return r.i < len(r.b) }

func (r *windowBytes) next() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// windowStats counts what a script exercised.
type windowStats struct {
	matches  [maxSteadyPeriod + 1]int // by period
	forwards int
	relayout int
	refusals int
}

// writeSynth writes a synthetic layer state through every stream method:
// 8-byte words, flags and short strings, so the in-place writer meets each
// of its paths at every stream offset.
func writeSynth(f *FP, stream []byte, lanes []int64) {
	for i := 0; i < len(stream); {
		switch b := stream[i]; {
		case b%3 == 0 && i+8 <= len(stream):
			f.I64(int64(binary.LittleEndian.Uint64(stream[i:])))
			i += 8
		case b%3 == 1:
			f.Bool(b&4 != 0)
			i++
		default:
			n := min(len(stream)-i, 1+int(b%5))
			f.Str(string(stream[i : i+n]))
			i += n
		}
	}
	for i := range lanes {
		f.MonoI64(&lanes[i])
	}
}

// checkSteadyWindow decodes a capture sequence from data and drives Steady
// and steadyModel through it side by side. The sequence cycles through up
// to six states that share a prefix, interleaved with one-off states,
// refusals, state edits (a changed byte, a longer or shorter stream), lane
// layout changes, replays and re-arms. After every capture the two must
// agree on the match, Period, Delta and GaveUp, Steady's stream and lanes
// must be the capture's, and every Forward must add the model's delta to
// every lane. After a Forward both re-arm, as the measure loop does.
func checkSteadyWindow(t testing.TB, data []byte, st *windowStats) {
	r := &windowBytes{b: data}
	period := 1 + int(r.next()%maxSteadyPeriod)
	base := make([]byte, 1+int(r.next()%48))
	for i := range base {
		base[i] = r.next()
	}
	states := make([][]byte, period)
	for i := range states {
		states[i] = slices.Clone(base)
		if n := len(base); n > 0 {
			states[i][int(r.next())%n] ^= byte(1 + i)
		}
	}
	lanes := make([]int64, r.next()%9)
	growth := func(phase, lane int) int64 { return int64(phase*7 + lane%3) }

	k := New()
	var stream []byte
	refuse := false
	det := NewSteady(k, func(f *FP) {
		if refuse {
			f.Refuse("script refusal")
			return
		}
		writeSynth(f, stream, lanes)
	})
	var m steadyModel
	phase := 0
	matched := false
	for step := 0; r.more() && step < 400; step++ {
		op := r.next()
		switch op % 16 {
		case 0:
			det.Rearm()
			m.rearm()
			matched = false
			continue
		case 1:
			n := int(r.next() % 9)
			for len(lanes) < n {
				lanes = append(lanes, int64(r.next()))
			}
			lanes = lanes[:n]
			st.relayout++
			matched = false // Forward replays the lanes of the capture that matched
			continue
		case 2:
			s := &states[int(r.next())%period]
			switch n := r.next(); {
			case n < 96 && len(*s) > 0:
				*s = (*s)[:int(n)%len(*s)]
			case n < 192:
				*s = append(*s, n, r.next())
			default:
				if len(*s) > 0 {
					(*s)[int(r.next())%len(*s)] ^= n
				}
			}
			continue
		case 3:
			if matched {
				reps := int64(1 + r.next()%5)
				want := m.forward(reps)
				kept := lanes
				lanes = make([]int64, len(kept))
				det.Forward(reps)
				if !slices.Equal(lanes, want) {
					t.Fatalf("step %d: Forward(%d) added %v to the lanes, the model %v", step, reps, lanes, want)
				}
				lanes = kept
				st.forwards++
				det.Rearm()
				m.rearm()
				matched = false
				continue
			}
		}

		// A capture: the next state of the cycle, a one-off variant of it, or
		// a refusal.
		stream = states[phase%period]
		phase++
		refuse = op%16 == 4
		if op%16 == 5 && len(stream) > 0 {
			stream = slices.Clone(stream)
			stream[int(r.next())%len(stream)] ^= 0x5A
		}
		for i := range lanes {
			lanes[i] += growth(phase%period, i)
		}
		k.now += Time(r.next() % 3)

		ref := &FP{}
		ref.reset(k.now)
		k.steadyWalk(ref)
		if !refuse {
			writeSynth(ref, stream, lanes)
		}
		want := m.capture(modelCapture{k.now, ref.buf, slices.Clone(ref.lanes)}, refuse)
		got := det.Capture()
		if refuse {
			st.refusals++
		}
		if got != want {
			t.Fatalf("step %d: Capture matched %v, the model %v", step, got, want)
		}
		if det.GaveUp() != m.gaveUp() {
			t.Fatalf("step %d: GaveUp %v, the model %v", step, det.GaveUp(), m.gaveUp())
		}
		if got && (det.Period() != m.period || det.Delta() != m.delta) {
			t.Fatalf("step %d: matched period %d delta %v, the model period %d delta %v",
				step, det.Period(), det.Delta(), m.period, m.delta)
		}
		if got {
			st.matches[det.Period()]++
		}
		matched = got
		if !refuse && !det.GaveUp() && (!bytes.Equal(det.f.buf, ref.buf) || !slices.Equal(det.f.lanes, ref.lanes)) {
			t.Fatalf("step %d: the window's newest capture differs from a fresh one", step)
		}
	}
}

// windowScript returns a random script that mostly captures: cycle states
// and variants, with the other ops rare enough that periods up to six fill
// the window and match.
func windowScript(rng *rand.Rand) []byte {
	b := make([]byte, 64+rng.Intn(512))
	rng.Read(b)
	for i := 60; i < len(b); i++ {
		if rng.Intn(6) != 0 {
			b[i] = byte(6+rng.Intn(10)) + 16*byte(rng.Intn(16)) // a plain capture
		}
	}
	return b
}

// TestSteadyWindowMatchesModel runs random capture sequences through Steady
// and the whole-capture model and requires them to agree at every capture,
// and requires the sequences to have matched every period from 1 to 6,
// replayed, refused and changed lane layouts, so the agreement is not
// vacuous.
func TestSteadyWindowMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var st windowStats
	for range 3000 {
		checkSteadyWindow(t, windowScript(rng), &st)
	}
	for p := 1; p <= maxSteadyPeriod; p++ {
		if st.matches[p] == 0 {
			t.Errorf("no sequence matched at period %d", p)
		}
	}
	if st.forwards == 0 || st.relayout == 0 || st.refusals == 0 {
		t.Errorf("sequences replayed %d times, changed lane layout %d times and refused %d times; want each at least once",
			st.forwards, st.relayout, st.refusals)
	}
	t.Logf("matches by period %v, %d replays, %d lane layout changes, %d refusals",
		st.matches[1:], st.forwards, st.relayout, st.refusals)
}

// FuzzSteadyWindow is TestSteadyWindowMatchesModel's check on fuzzer-chosen
// capture sequences.
func FuzzSteadyWindow(f *testing.F) {
	rng := rand.New(rand.NewSource(35))
	for range 8 {
		f.Add(windowScript(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSteadyWindow(t, data, &windowStats{})
	})
}

// TestSteadyWindowLaneLayoutInsidePeriod: captures A, B, C, A with 5, 3, 3
// and 5 lanes match at period 3, and the replay adds each lane's growth
// since the first A, as the model does. Lanes 3 and 4 are missing from the
// two short captures, so their steps through them end early and read 0.
func TestSteadyWindowLaneLayoutInsidePeriod(t *testing.T) {
	k := New()
	var stream []byte
	var lanes []int64
	det := NewSteady(k, func(f *FP) { writeSynth(f, stream, lanes) })
	var m steadyModel
	seq := []struct {
		state string
		lanes []int64
	}{
		{"A", []int64{1, 2, 3, 4, 5}},
		{"B", []int64{10, 20, 30}},
		{"C", []int64{11, 22, 33}},
		{"A", []int64{7, 9, 11, 13, 15}},
	}
	for i, c := range seq {
		k.now += 10
		stream, lanes = []byte(c.state), slices.Clone(c.lanes)
		ref := &FP{}
		ref.reset(k.now)
		k.steadyWalk(ref)
		writeSynth(ref, stream, lanes)
		want := m.capture(modelCapture{k.now, ref.buf, slices.Clone(ref.lanes)}, false)
		if got := det.Capture(); got != want || got != (i == len(seq)-1) {
			t.Fatalf("capture %d (%s) matched %v, the model %v", i, c.state, got, want)
		}
	}
	if det.Period() != 3 || m.period != 3 {
		t.Fatalf("matched period %d, the model %d, want 3", det.Period(), m.period)
	}
	lanes = make([]int64, 5)
	det.Forward(2)
	if want := m.forward(2); !slices.Equal(lanes, want) || !slices.Equal(want, []int64{12, 14, 16, 18, 20}) {
		t.Fatalf("Forward(2) added %v, the model %v, want [12 14 16 18 20]", lanes, want)
	}
}
