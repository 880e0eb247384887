package ccmi

import (
	"testing"

	"bgpcoll/internal/data"
	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
)

// BenchmarkRectBcastSchedule: one six-color rectangle broadcast of four
// 4 KB chunks per color on a warmed 8x8x8 machine, timing only, from a
// non-corner root. A recycled Bcast re-arms its color runs every operation,
// so the route tables are rebuilt each time, as in a measure loop. The
// ns/node-chunk metric is the schedule's cost per (node, chunk) delivery:
// the stage handlers, the DMA and link reservations, and the kernel events
// they schedule.
func BenchmarkRectBcastSchedule(b *testing.B) {
	const chunks = 4
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: 8, DY: 8, DZ: 8}
	cfg.Functional = false
	m, err := machine.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	nodes := m.Geom.Nodes()
	colors := m.Colors()
	dels := make([]*Delivery, nodes)
	for i := range dels {
		dels[i] = &Delivery{}
	}
	bc := &Bcast{
		M:          m,
		Root:       geometry.XYZ(3, 5, 1),
		Src:        data.New(len(colors)*chunks*chunkBytes, false),
		Bufs:       make([]data.Buf, nodes),
		Deliveries: dels,
		Colors:     colors,
	}
	run := func() {
		m.Reset()
		for _, d := range dels {
			d.Arm(m.K.NewCounter("del"))
		}
		m.K.At(0, bc.Run)
		if err := m.K.Run(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // links, kernel tables and delivery logs reach their size
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*len(colors)*chunks), "ns/node-chunk")
}
