package torus

import (
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

// BenchmarkLineBcast: one chunk's line broadcast on an 8x8x8 torus, cycling
// over every root, dimension and rectangle-broadcast lane. A warm-up cycle
// creates every link first, so the loop measures the per-hop path only.
func BenchmarkLineBcast(b *testing.B) {
	geom, _ := geometry.NewTorus(8, 8, 8)
	net := New(sim.New(), geom, hw.DefaultParams())
	var arr []Arrival
	wire := net.WireBytes(4096)
	bcast := func(i int) {
		arr, _ = net.LineBcast(arr[:0], 0, i%geom.Nodes(), geometry.Dim(i%3), geometry.Plus, i%6, wire)
	}
	for i := 0; i < 3*geom.Nodes(); i++ {
		bcast(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bcast(i)
	}
}

// BenchmarkUnicast: one point-to-point chunk on an 8x8x8 torus over routes
// of 0 to 12 hops, after a warm-up cycle over the same pairs.
func BenchmarkUnicast(b *testing.B) {
	geom, _ := geometry.NewTorus(8, 8, 8)
	net := New(sim.New(), geom, hw.DefaultParams())
	send := func(i int) {
		src := geom.CoordOf(i % geom.Nodes())
		dst := geom.CoordOf((i * 7) % geom.Nodes())
		net.Unicast(0, src, dst, 12, 4096)
	}
	for i := 0; i < geom.Nodes(); i++ {
		send(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
	}
}
