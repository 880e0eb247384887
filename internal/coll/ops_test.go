package coll

import (
	"fmt"
	"hash/fnv"
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

// opCase is one point-to-point or extension-collective configuration. setup
// allocates and fills rank r's operands. block runs the operation through
// the blocking API; then runs it through the explicit-resume (*Then) form.
// The buffers left in operands.out are the ones whose contents the case pins.
type opCase struct {
	name  string
	cfg   hw.Config
	tune  func(t *mpi.Tunables)
	setup func(r *mpi.Rank) *operands
	block func(r *mpi.Rank, o *operands)
	then  func(r *mpi.Rank, o *operands, done func())
}

// operands is one rank's buffers for an opCase.
type operands struct {
	send, recv data.Buf
	out        []data.Buf
}

// filled returns an n-byte buffer filled from seed.
func filled(r *mpi.Rank, n int, seed uint64) data.Buf {
	b := r.NewBuf(n)
	b.Fill(seed)
	return b
}

// floats returns a buffer of n float64 elements, all equal to v.
func floats(r *mpi.Rank, n int, v float64) data.Buf {
	b := r.NewBuf(n * data.Float64Len)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	b.PutFloats(vals)
	return b
}

// pairCase is a point-to-point case between ranks src and dst: src's send
// buffer travels to dst's receive buffer.
func pairCase(name string, cfg hw.Config, src, dst, n int, block func(r *mpi.Rank, o *operands, peer int), then func(r *mpi.Rank, o *operands, peer int, done func())) opCase {
	return opCase{
		name: name, cfg: cfg,
		setup: func(r *mpi.Rank) *operands {
			switch r.Rank() {
			case src:
				return &operands{send: filled(r, n, uint64(n)+3)}
			case dst:
				recv := r.NewBuf(n)
				return &operands{recv: recv, out: []data.Buf{recv}}
			}
			return nil
		},
		block: func(r *mpi.Rank, o *operands) {
			if r.Rank() == src {
				block(r, o, dst)
				return
			}
			block(r, o, src)
		},
		then: func(r *mpi.Rank, o *operands, done func()) {
			if r.Rank() == src {
				then(r, o, dst, done)
				return
			}
			then(r, o, src, done)
		},
	}
}

// blockingSend is the pairCase body for Send/Recv.
func blockingSend(r *mpi.Rank, o *operands, peer int) {
	if o.recv.Len() == 0 {
		r.Send(peer, o.send, 7)
		return
	}
	r.Recv(peer, o.recv, 7)
}

// thenSend is the pairCase body for SendThen/RecvThen.
func thenSend(r *mpi.Rank, o *operands, peer int, done func()) {
	if o.recv.Len() == 0 {
		r.SendThen(peer, o.send, 7, done)
		return
	}
	r.RecvThen(peer, o.recv, 7, done)
}

// blockingIsend is the pairCase body for Isend/Irecv + Wait.
func blockingIsend(r *mpi.Rank, o *operands, peer int) {
	if o.recv.Len() == 0 {
		r.Isend(peer, o.send, 7).Wait()
		return
	}
	r.Irecv(peer, o.recv, 7).Wait()
}

// thenIsend is the pairCase body for Isend/Irecv + WaitThen.
func thenIsend(r *mpi.Rank, o *operands, peer int, done func()) {
	if o.recv.Len() == 0 {
		r.Isend(peer, o.send, 7).WaitThen(done)
		return
	}
	r.Irecv(peer, o.recv, 7).WaitThen(done)
}

// reduceCase reduces doubles elements of value rank+1 to root.
func reduceCase(name string, cfg hw.Config, doubles, root int) opCase {
	return opCase{
		name: name, cfg: cfg,
		setup: func(r *mpi.Rank) *operands {
			o := &operands{send: floats(r, doubles, float64(r.Rank()+1))}
			if r.Rank() == root {
				o.recv = r.NewBuf(doubles * data.Float64Len)
				o.out = []data.Buf{o.recv}
			}
			return o
		},
		block: func(r *mpi.Rank, o *operands) { r.ReduceSum(o.send, o.recv, root) },
		then:  func(r *mpi.Rank, o *operands, done func()) { r.ReduceSumThen(o.send, o.recv, root, done) },
	}
}

// opCases mirrors the configurations of the point-to-point and extension
// tests in this package and in mpi.
func opCases() []opCase {
	quad221 := testConfig(2, 2, 1, hw.Quad)
	quad222 := testConfig(2, 2, 2, hw.Quad)
	cases := []opCase{
		pairCase("send/eager", quad221, 0, 12, 1<<10, blockingSend, thenSend),
		pairCase("send/rendezvous", quad221, 0, 12, 256<<10, blockingSend, thenSend),
		pairCase("send/intranode", quad221, 1, 2, 32<<10, blockingSend, thenSend),
		pairCase("isend/eager", quad221, 0, 8, 512, blockingIsend, thenIsend),
		pairCase("isend/rendezvous", quad221, 0, 8, 128<<10, blockingIsend, thenIsend),
		pairCase("isend/intranode", quad221, 1, 2, 1<<10, blockingIsend, thenIsend),
		{
			name: "sendrecv", cfg: quad221,
			setup: func(r *mpi.Rank) *operands {
				if r.Rank() > 1 {
					return nil
				}
				recv := r.NewBuf(256 << 10)
				return &operands{send: filled(r, 256<<10, uint64(r.Rank())), recv: recv, out: []data.Buf{recv}}
			},
			block: func(r *mpi.Rank, o *operands) {
				peer := 1 - r.Rank()
				r.Sendrecv(peer, o.send, 5, peer, o.recv, 5)
			},
			then: func(r *mpi.Rank, o *operands, done func()) {
				peer := 1 - r.Rank()
				r.SendrecvThen(peer, o.send, 5, peer, o.recv, 5, done)
			},
		},
		{
			name: "gather", cfg: quad221,
			setup: func(r *mpi.Rank) *operands {
				o := &operands{send: filled(r, 512, uint64(r.Rank()))}
				if r.Rank() == 3 {
					o.recv = r.NewBuf(512 * r.Size())
					o.out = []data.Buf{o.recv}
				}
				return o
			},
			block: func(r *mpi.Rank, o *operands) { r.Gather(o.send, o.recv, 3) },
			then:  func(r *mpi.Rank, o *operands, done func()) { r.GatherThen(o.send, o.recv, 3, done) },
		},
	}
	for _, c := range []struct {
		algo  string
		block int
	}{{mpi.AllgatherTorus, 256}, {mpi.AllgatherRing, 512}} {
		algo, block := c.algo, c.block
		cases = append(cases, opCase{
			name: algo, cfg: quad221,
			tune: func(t *mpi.Tunables) { t.Allgather = algo },
			setup: func(r *mpi.Rank) *operands {
				recv := r.NewBuf(block * r.Size())
				return &operands{send: filled(r, block, uint64(r.Rank())+7), recv: recv, out: []data.Buf{recv}}
			},
			block: func(r *mpi.Rank, o *operands) { r.Allgather(o.send, o.recv) },
			then:  func(r *mpi.Rank, o *operands, done func()) { r.AllgatherThen(o.send, o.recv, done) },
		})
	}
	for _, root := range []int{0, 5, 31} {
		cases = append(cases, reduceCase(fmt.Sprintf("reduce/quad/root%d", root), quad222, 1024, root))
	}
	cases = append(cases, reduceCase("reduce/smp", testConfig(2, 2, 1, hw.SMP), 512, 0))
	rdv := testConfig(2, 1, 1, hw.Quad)
	rdv.Functional = false
	cases = append(cases,
		opCase{
			name: "scatter", cfg: quad221,
			setup: func(r *mpi.Rank) *operands {
				o := &operands{recv: r.NewBuf(2048)}
				o.out = []data.Buf{o.recv}
				if r.Rank() == 7 {
					o.send = r.NewBuf(2048 * r.Size())
					for i := 0; i < r.Size(); i++ {
						o.send.Slice(i*2048, 2048).Fill(uint64(i) + 100)
					}
				}
				return o
			},
			block: func(r *mpi.Rank, o *operands) { r.Scatter(o.send, o.recv, 7) },
			then:  func(r *mpi.Rank, o *operands, done func()) { r.ScatterThen(o.send, o.recv, 7, done) },
		},
		alltoallCase("alltoall", quad221, 1<<10),
		alltoallCase("alltoall/rendezvous", rdv, 64<<10),
		opCase{
			name: "dual", cfg: testConfig(2, 2, 1, hw.Dual),
			setup: func(r *mpi.Rank) *operands {
				buf := r.NewBuf(32 << 10)
				if r.Rank() == 0 {
					buf.Fill(5)
				}
				recv := r.NewBuf(256 * data.Float64Len)
				return &operands{send: floats(r, 256, 1), recv: recv, out: []data.Buf{buf, recv}}
			},
			block: func(r *mpi.Rank, o *operands) {
				r.Bcast(o.out[0], 0)
				r.AllreduceSum(o.send, o.recv)
			},
			then: func(r *mpi.Rank, o *operands, done func()) {
				r.BcastThen(o.out[0], 0, func() { r.AllreduceSumThen(o.send, o.recv, done) })
			},
		},
	)
	return cases
}

// alltoallCase exchanges block-byte blocks among all ranks.
func alltoallCase(name string, cfg hw.Config, block int) opCase {
	return opCase{
		name: name, cfg: cfg,
		setup: func(r *mpi.Rank) *operands {
			send := r.NewBuf(block * r.Size())
			for j := 0; j < r.Size(); j++ {
				send.Slice(j*block, block).Fill(uint64(r.Rank()*1000 + j))
			}
			recv := r.NewBuf(block * r.Size())
			return &operands{send: send, recv: recv, out: []data.Buf{recv}}
		},
		block: func(r *mpi.Rank, o *operands) { r.Alltoall(o.send, o.recv) },
		then:  func(r *mpi.Rank, o *operands, done func()) { r.AlltoallThen(o.send, o.recv, done) },
	}
}

// opResult is what an opCase run pins: the end virtual time and a digest of
// every rank's out buffers in rank order.
type opResult struct {
	end    sim.Time
	digest uint64
}

// runOpCase runs c with body on a fresh world.
func runOpCase(t *testing.T, c opCase, run func(w *mpi.World, fn func(r *mpi.Rank)) (sim.Time, error), body func(r *mpi.Rank, o *operands)) opResult {
	t.Helper()
	w, err := mpi.NewWorld(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.tune != nil {
		c.tune(&w.Tunables)
	}
	ops := make([]*operands, w.Size())
	end, err := run(w, func(r *mpi.Rank) {
		o := c.setup(r)
		ops[r.Rank()] = o
		if o != nil {
			body(r, o)
		}
	})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	h := fnv.New64a()
	for id, o := range ops {
		if o == nil {
			continue
		}
		for _, b := range o.out {
			fmt.Fprintf(h, "%d:%d:", id, b.Len())
			if b.IsReal() {
				h.Write(b.Bytes())
			}
		}
	}
	return opResult{end: end, digest: h.Sum64()}
}

func blockingRun(w *mpi.World, fn func(r *mpi.Rank)) (sim.Time, error) { return w.Run(fn) }

func programRun(w *mpi.World, fn func(r *mpi.Rank)) (sim.Time, error) { return w.RunProgram(fn) }

// opPins holds each opCase's end virtual time (ps) and buffer digest.
var opPins = map[string]opResult{
	"send/eager":          {4422435, 0x8286121f9425ddd},
	"send/rendezvous":     {762224830, 0xfc6752dac21b8711},
	"send/intranode":      {14746956, 0xac5d1a147240c070},
	"isend/eager":         {2708938, 0x199a62e20ce77eb8},
	"isend/rendezvous":    {382212488, 0x4cd6b6a11c4abfb9},
	"isend/intranode":     {945217, 0x30b4bfa2b7923876},
	"sendrecv":            {114475652, 0x2d06267784120f19},
	"gather":              {15358344, 0xc501dcf20b3ded4d},
	"allgather.torus":     {33062957, 0xd1245a84cb13bf75},
	"allgather.ring":      {28330358, 0xa6ca567a7671cd03},
	"reduce/quad/root0":   {58442471, 0x2def4b8a03b82fe7},
	"reduce/quad/root5":   {59882036, 0x746af886f4047dc4},
	"reduce/quad/root31":  {59882036, 0xdfec35e83570f605},
	"reduce/smp":          {17746216, 0x3ca11ab4811d036},
	"scatter":             {45597660, 0x1c2db819ace2920f},
	"alltoall":            {134615809, 0x12d4523950f8f64},
	"alltoall/rendezvous": {2830269457, 0xc26e68b78f7aa49d},
	"dual":                {74679586, 0x9254092fb655205},
}

// TestOpCasesPinned pins the end virtual time and result buffers of every
// point-to-point and extension-collective configuration.
func TestOpCasesPinned(t *testing.T) {
	for _, c := range opCases() {
		got := runOpCase(t, c, blockingRun, c.block)
		want, ok := opPins[c.name]
		if !ok || got != want {
			t.Errorf("%s: got {%d, %#x}, pinned {%d, %#x}", c.name, int64(got.end), got.digest, int64(want.end), want.digest)
		}
	}
}

// TestOpCasesProgramMatchesBlocking is the reference check for the
// explicit-resume transcriptions: every case run as inline programs through
// the *Then forms must end at the same virtual time with the same buffers
// as the blocking forms on goroutine-backed ranks.
func TestOpCasesProgramMatchesBlocking(t *testing.T) {
	for _, c := range opCases() {
		block := runOpCase(t, c, blockingRun, c.block)
		prog := runOpCase(t, c, programRun, func(r *mpi.Rank, o *operands) { c.then(r, o, func() {}) })
		if prog != block {
			t.Errorf("%s: program {%d, %#x}, blocking {%d, %#x}", c.name, int64(prog.end), prog.digest, int64(block.end), block.digest)
		}
	}
}
