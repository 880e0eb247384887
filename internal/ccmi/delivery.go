package ccmi

import (
	"slices"

	"bgpcoll/internal/data"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// Delivery records what a collective schedule has delivered to one node: an
// ordered log of the delivered spans' lengths plus a byte counter that
// simulated processes wait on. It is the software-visible face of the DMA
// byte counters: rank protocols poll the counter and then process the newly
// logged lengths. The log keeps lengths only, 4 bytes a chunk, because no
// protocol reads where a span lies; the payload copy of a functional run is
// scheduled separately (copyAt).
type Delivery struct {
	Counter *sim.Counter
	Lens    []int32
}

// NewDelivery creates an empty delivery log.
func NewDelivery(k *sim.Kernel, name string) *Delivery {
	return &Delivery{Counter: k.NewCounter(name)}
}

// Deliver schedules the arrival of span at time t: its length is appended to
// the log and the byte counter advances.
func (d *Delivery) Deliver(k *sim.Kernel, t sim.Time, span hw.Span) {
	k.HookAt(t, d, int64(span.Off), int64(span.Len))
}

// RunPost implements sim.PostHandler: the scheduled arrival of the span
// (off, n).
//
//bgplint:hot
func (d *Delivery) RunPost(_, n int64) {
	d.Lens = append(d.Lens, int32(n))
	d.Counter.Add(n)
}

// presize grows every log's capacity by spans, the number of chunks a
// schedule is about to deliver to each node, so logging never reallocates.
func presize(dels []*Delivery, spans int) {
	for _, d := range dels {
		d.Lens = slices.Grow(d.Lens, spans)
	}
}

// copyAt schedules the payload copy of span from src to dst at t. Only
// functional runs, where both buffers hold real bytes, schedule anything:
// on phantom buffers the copy would be a no-op event.
func copyAt(k *sim.Kernel, t sim.Time, dst, src data.Buf, span hw.Span) {
	if span.Len == 0 || dst.Len() == 0 || !dst.IsReal() || !src.IsReal() {
		return
	}
	k.At(t, func() {
		data.Copy(dst.Slice(span.Off, span.Len), src.Slice(span.Off, span.Len))
	})
}

// Drain returns the lengths logged beyond *seen and advances *seen past
// them. Rank protocols call it after the counter moves to learn exactly
// which chunks arrived.
func (d *Delivery) Drain(seen *int) []int32 {
	lens := d.Lens[*seen:]
	*seen = len(d.Lens)
	return lens
}

// Arm re-initializes a recycled log for a new schedule: empty, counting on
// c. The length list keeps its capacity.
func (d *Delivery) Arm(c *sim.Counter) {
	d.Counter = c
	d.Lens = d.Lens[:0]
}
