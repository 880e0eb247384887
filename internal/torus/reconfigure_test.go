package torus_test

import (
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/machine"
)

// TestReconfiguredNetworkStartsEmpty: a machine reconfigured after torus
// traffic gets a network with no links, sized for the new geometry.
func TestReconfiguredNetworkStartsEmpty(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.Functional = false
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Torus.LineBcast(nil, 0, 0, geometry.X, geometry.Plus, 4, m.Torus.WireBytes(512))
	m.Torus.Unicast(0, geometry.XYZ(0, 0, 0), geometry.XYZ(2, 2, 1), 12, 512)
	if links, _, _ := m.Torus.Stats(); links != 3+5 {
		t.Fatalf("before Reconfigure: %d links, want 8", links)
	}
	if err := m.K.Run(); err != nil {
		t.Fatal(err)
	}

	next := cfg
	next.Torus = geometry.Torus{DX: 8, DY: 2, DZ: 2}
	if err := m.Reconfigure(next); err != nil {
		t.Fatal(err)
	}
	if links, bytes, busy := m.Torus.Stats(); links != 0 || bytes != 0 || busy != 0 {
		t.Fatalf("after Reconfigure: %d links, %d bytes, busy %v", links, bytes, busy)
	}
	// The new network's table covers the new geometry: the far end of the
	// longer X line has links of its own.
	arr, _ := m.Torus.LineBcast(nil, 0, m.Geom.NodeID(geometry.XYZ(7, 1, 1)), geometry.X, geometry.Minus, 4, m.Torus.WireBytes(512))
	if len(arr) != 7 {
		t.Fatalf("%d arrivals on the reconfigured X line, want 7", len(arr))
	}
	if links, _, _ := m.Torus.Stats(); links != 7 {
		t.Fatalf("after one line broadcast: %d links, want 7", links)
	}
}
