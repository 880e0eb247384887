package cnk

import (
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/sim"
)

func newProc(t *testing.T, params hw.Params) (*sim.Kernel, *hw.Node) {
	t.Helper()
	k := sim.New()
	return k, hw.NewNode(k, 0, geometry.Coord{}, params)
}

// run executes fn as a simulated process and returns the virtual time it
// consumed.
func run(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	var elapsed sim.Time
	k.Spawn("t", func(p *sim.Proc) {
		start := p.Now()
		fn(p)
		elapsed = p.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return elapsed
}

// mapSync runs MapThen on a goroutine process, where it blocks, and returns
// the system calls it issued.
func mapSync(w *Process, p *sim.Proc, key BufferKey, bytes int) int {
	before := w.Syscalls
	w.MapThen(p, key, bytes, func() {})
	return int(w.Syscalls - before)
}

func TestFirstMapPaysTwoSyscalls(t *testing.T) {
	params := hw.DefaultParams()
	k, node := newProc(t, params)
	w := NewProcess(node, 0)
	key := BufferKey{OwnerLocalRank: 1, Tag: 7}
	elapsed := run(t, k, func(p *sim.Proc) {
		if calls := mapSync(w, p, key, 4096); calls != 2 {
			t.Errorf("first map issued %d syscalls, want 2", calls)
		}
	})
	if want := 2 * params.SyscallTime; elapsed != want {
		t.Errorf("first map took %v, want %v", elapsed, want)
	}
}

func TestMappingCacheHitIsFree(t *testing.T) {
	k, node := newProc(t, hw.DefaultParams())
	w := NewProcess(node, 0)
	key := BufferKey{OwnerLocalRank: 1, Tag: 7}
	elapsed := run(t, k, func(p *sim.Proc) {
		mapSync(w, p, key, 4096)
		mark := p.Now()
		if calls := mapSync(w, p, key, 4096); calls != 0 {
			t.Errorf("cached map issued %d syscalls", calls)
		}
		if p.Now() != mark {
			t.Error("cached map consumed time")
		}
	})
	_ = elapsed
	if w.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", w.CacheHits)
	}
}

func TestNoCachingAlwaysPays(t *testing.T) {
	params := hw.DefaultParams()
	params.MapCacheEnabled = false
	k, node := newProc(t, params)
	w := NewProcess(node, 0)
	key := BufferKey{OwnerLocalRank: 1, Tag: 7}
	elapsed := run(t, k, func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if calls := mapSync(w, p, key, 4096); calls != 2 {
				t.Fatalf("iteration %d issued %d syscalls, want 2", i, calls)
			}
		}
	})
	if want := 10 * params.SyscallTime; elapsed != want {
		t.Errorf("5 uncached maps took %v, want %v", elapsed, want)
	}
}

func TestOwnMemoryNeedsNoWindow(t *testing.T) {
	k, node := newProc(t, hw.DefaultParams())
	w := NewProcess(node, 2)
	run(t, k, func(p *sim.Proc) {
		if calls := mapSync(w, p, BufferKey{OwnerLocalRank: 2, Tag: 1}, 1<<20); calls != 0 {
			t.Errorf("self map issued %d syscalls", calls)
		}
	})
	if w.Syscalls != 0 {
		t.Error("self map recorded syscalls")
	}
}

func TestLargeBufferSpansRegions(t *testing.T) {
	params := hw.DefaultParams()
	params.TLBSlotBytes = 1 << 20 // 1 MB slots
	params.TLBSlots = 4
	k, node := newProc(t, params)
	w := NewProcess(node, 0)
	run(t, k, func(p *sim.Proc) {
		// 2.5 MB buffer needs 3 regions -> 6 syscalls.
		if calls := mapSync(w, p, BufferKey{OwnerLocalRank: 1, Tag: 1}, 5<<19); calls != 6 {
			t.Errorf("spanning map issued %d syscalls, want 6", calls)
		}
	})
	if w.Resident() != 3 {
		t.Errorf("resident = %d, want 3", w.Resident())
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	params := hw.DefaultParams() // 3 slots
	k, node := newProc(t, params)
	w := NewProcess(node, 0)
	keys := []BufferKey{
		{OwnerLocalRank: 1, Tag: 1},
		{OwnerLocalRank: 2, Tag: 1},
		{OwnerLocalRank: 3, Tag: 1},
		{OwnerLocalRank: 1, Tag: 2}, // fourth region forces an eviction
	}
	run(t, k, func(p *sim.Proc) {
		for _, key := range keys {
			mapSync(w, p, key, 4096)
		}
		if w.Evictions != 1 {
			t.Errorf("evictions = %d, want 1", w.Evictions)
		}
		// keys[0] was least recently used and must have been evicted:
		// remapping it costs syscalls again.
		if calls := mapSync(w, p, keys[0], 4096); calls != 2 {
			t.Errorf("remap after eviction issued %d syscalls, want 2", calls)
		}
		// keys[2] stayed resident.
		if calls := mapSync(w, p, keys[2], 4096); calls != 0 {
			t.Errorf("resident map issued %d syscalls", calls)
		}
	})
}

func TestTouchRefreshesLRU(t *testing.T) {
	k, node := newProc(t, hw.DefaultParams())
	w := NewProcess(node, 0)
	a := BufferKey{OwnerLocalRank: 1, Tag: 1}
	b := BufferKey{OwnerLocalRank: 2, Tag: 1}
	c := BufferKey{OwnerLocalRank: 3, Tag: 1}
	d := BufferKey{OwnerLocalRank: 3, Tag: 2}
	run(t, k, func(p *sim.Proc) {
		mapSync(w, p, a, 64)
		mapSync(w, p, b, 64)
		mapSync(w, p, c, 64)
		mapSync(w, p, a, 64) // touch a: b becomes LRU
		mapSync(w, p, d, 64) // evicts b
		if calls := mapSync(w, p, a, 64); calls != 0 {
			t.Error("touched mapping was evicted")
		}
		if calls := mapSync(w, p, b, 64); calls == 0 {
			t.Error("LRU mapping survived eviction")
		}
	})
}

func TestStatsString(t *testing.T) {
	k, node := newProc(t, hw.DefaultParams())
	w := NewProcess(node, 1)
	run(t, k, func(p *sim.Proc) {
		mapSync(w, p, BufferKey{OwnerLocalRank: 0, Tag: 1}, 64)
	})
	if s := w.String(); s == "" {
		t.Error("empty String")
	}
	if w.MapCalls != 1 || w.Syscalls != 2 {
		t.Errorf("stats: %+v", w)
	}
}
