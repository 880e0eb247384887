package machine

import (
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
)

// TestNewErrorPaths walks every Validate rejection through New: each invalid
// configuration must come back as an error, not a partially built partition.
func TestNewErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*hw.Config)
	}{
		{"invalid mode", func(c *hw.Config) { c.Mode = hw.Mode(7) }},
		{"zero torus dim", func(c *hw.Config) { c.Torus = geometry.Torus{DX: 0, DY: 1, DZ: 1} }},
		{"too few TLB slots", func(c *hw.Config) { c.Params.TLBSlots = 1 }},
	}
	for _, tc := range cases {
		cfg := hw.DefaultConfig()
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

// TestParallelBlocksCovers checks the fan-out partition itself: every index
// is filled exactly once for worker counts that divide n unevenly, and small
// slabs fall back to the serial path.
func TestParallelBlocksCovers(t *testing.T) {
	defer func(old int) { BuildWorkers = old }(BuildWorkers)
	for _, workers := range []int{1, 3, 8} {
		BuildWorkers = workers
		for _, n := range []int{10, buildBlockMin - 1, 3*buildBlockMin + 17} {
			marks := make([]int, n)
			ParallelBlocks(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					marks[i]++
				}
			})
			for i, m := range marks {
				if m != 1 {
					t.Fatalf("workers=%d n=%d: index %d filled %d times", workers, n, i, m)
				}
			}
		}
	}
}

// TestParallelConstructionStructure compares a serially built partition
// against one built with a fanned-out worker pool, element by element: same
// IDs, coordinates, device identities, and shared parameter block. The
// kernel-observable half of the equivalence (bit-identical virtual times) is
// pinned in internal/bench.
func TestParallelConstructionStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-node partitions in -short mode")
	}
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: 16, DY: 16, DZ: 16} // 4096 nodes: clears buildBlockMin
	cfg.Functional = false
	defer func(old int) { BuildWorkers = old }(BuildWorkers)

	BuildWorkers = 1
	serial, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	BuildWorkers = 8
	par, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Nodes) != len(par.Nodes) {
		t.Fatalf("node counts differ: %d vs %d", len(serial.Nodes), len(par.Nodes))
	}
	for id := range par.Nodes {
		s, p := serial.Nodes[id], par.Nodes[id]
		if s.HW.ID != p.HW.ID || s.HW.Coord != p.HW.Coord {
			t.Fatalf("node %d identity differs: %v vs %v", id, s.HW.Coord, p.HW.Coord)
		}
		if s.HW.Bus.Name() != p.HW.Bus.Name() || s.DMA.Pipe().Name() != p.DMA.Pipe().Name() {
			t.Fatalf("node %d device names differ", id)
		}
		if p.HW.P != par.Nodes[0].HW.P {
			t.Fatalf("node %d does not share the partition's parameter block", id)
		}
	}
}

// TestReconfigureErrorPaths: Reconfigure must reject invalid targets, and a
// rejected call must leave the machine untouched and still reconfigurable.
func TestReconfigureErrorPaths(t *testing.T) {
	m, err := New(hw.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	bad := hw.DefaultConfig()
	bad.Mode = hw.Mode(7)
	if err := m.Reconfigure(bad); err == nil {
		t.Fatal("invalid target config accepted")
	}

	// A rejected Reconfigure is a no-op: the machine still reconfigures to a
	// valid target afterwards.
	next := hw.DefaultConfig()
	next.Torus = geometry.Torus{DX: 2, DY: 2, DZ: 2}
	next.Functional = false
	if err := m.Reconfigure(next); err != nil {
		t.Fatalf("valid Reconfigure after a rejected one: %v", err)
	}
	if len(m.Nodes) != next.Nodes() {
		t.Fatalf("reconfigured to %d nodes, want %d", len(m.Nodes), next.Nodes())
	}
}
