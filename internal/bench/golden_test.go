package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"bgpcoll/internal/geometry"
	"bgpcoll/internal/hw"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/sim"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from the current kernel")

// The golden determinism test pins the simulator's virtual-time outputs.
// Each figure of the paper is represented by a small-geometry slice of its
// algorithm set; every cell's exact virtual time (picoseconds) is committed
// in testdata/golden_digests.json. Any kernel or scheduling change that
// alters event ordering shows up as a digest mismatch — the file was
// generated with the seed (container/heap, two-channel coroutine) kernel and
// must stay bit-for-bit identical under every rewrite.

type goldenCell struct {
	Fig  string // figure the cell stands in for
	Name string // "algo/mode/size[xiters]"
	Run  func() (sim.Time, error)
}

func goldenConfig(mode hw.Mode) hw.Config {
	cfg := hw.DefaultConfig()
	cfg.Torus = geometry.Torus{DX: 2, DY: 2, DZ: 2}
	cfg.Mode = mode
	cfg.Functional = false
	return cfg
}

// goldenCells mirrors each figure's algorithm set at a 2x2x2 geometry. Sizes
// are one short and one pipelined message so both the latency and the
// chunked paths are pinned.
func goldenCells() []goldenCell {
	var cells []goldenCell
	bcast := func(fig, algo string, mode hw.Mode, msg, iters int) {
		cfg := goldenConfig(mode)
		cells = append(cells, goldenCell{
			Fig:  fig,
			Name: fmt.Sprintf("%s/%v/%d x%d", algo, mode, msg, iters),
			Run:  func() (sim.Time, error) { return MeasureBcast(cfg, algo, msg, iters) },
		})
	}
	// Fig6: short-message tree-network latency.
	for _, algo := range []string{mpi.BcastTreeShmem, mpi.BcastTreeDMAFIFO} {
		bcast("fig6", algo, hw.Quad, 256, 2)
	}
	bcast("fig6", mpi.BcastTreeSMP, hw.SMP, 256, 2)
	// Fig7: tree-network bandwidth, pipelined sizes.
	for _, algo := range []string{mpi.BcastTreeShaddr, mpi.BcastTreeDMAFIFO, mpi.BcastTreeDMADirect} {
		bcast("fig7", algo, hw.Quad, 64<<10, 2)
	}
	bcast("fig7", mpi.BcastTreeSMP, hw.SMP, 64<<10, 2)
	// Fig8: map-cache on/off.
	bcast("fig8", mpi.BcastTreeShaddr, hw.Quad, 16<<10, 3)
	{
		cfg := goldenConfig(hw.Quad)
		cfg.Params.MapCacheEnabled = false
		cells = append(cells, goldenCell{
			Fig:  "fig8",
			Name: fmt.Sprintf("%s/nocache/%d x%d", mpi.BcastTreeShaddr, 16<<10, 3),
			Run:  func() (sim.Time, error) { return MeasureBcast(cfg, mpi.BcastTreeShaddr, 16<<10, 3) },
		})
	}
	// Fig9: scaling — a second, non-cubic geometry.
	{
		cfg := goldenConfig(hw.Quad)
		cfg.Torus = geometry.Torus{DX: 2, DY: 2, DZ: 4}
		cells = append(cells, goldenCell{
			Fig:  "fig9",
			Name: fmt.Sprintf("%s/2x2x4/%d x%d", mpi.BcastTreeShaddr, 64<<10, 1),
			Run:  func() (sim.Time, error) { return MeasureBcast(cfg, mpi.BcastTreeShaddr, 64<<10, 1) },
		})
	}
	// Fig10: torus broadcasts.
	for _, algo := range []string{mpi.BcastTorusShaddr, mpi.BcastTorusFIFO, mpi.BcastTorusDirectPut} {
		bcast("fig10", algo, hw.Quad, 128<<10, 1)
	}
	bcast("fig10", mpi.BcastTorusDirectPut, hw.SMP, 128<<10, 1)
	// Table I: allreduce.
	for _, algo := range []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent} {
		algo := algo
		cfg := goldenConfig(hw.Quad)
		cells = append(cells, goldenCell{
			Fig:  "table1",
			Name: fmt.Sprintf("%s/%v/4096 doubles x1", algo, hw.Quad),
			Run:  func() (sim.Time, error) { return MeasureAllreduce(cfg, algo, 4096, 1) },
		})
	}
	return cells
}

// goldenFile is the committed digest format: per-figure FNV-1a digests over
// the cells' exact virtual times, plus the raw times for debuggability.
type goldenFile struct {
	Digests map[string]string `json:"digests"` // figure -> fnv64a hex
	Cells   map[string]int64  `json:"cells"`   // figure/cell -> picoseconds
}

func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	out := goldenFile{Digests: map[string]string{}, Cells: map[string]int64{}}
	perFig := map[string][]string{}
	for _, c := range goldenCells() {
		d, err := c.Run()
		if err != nil {
			t.Fatalf("golden cell %s/%s: %v", c.Fig, c.Name, err)
		}
		key := c.Fig + "/" + c.Name
		out.Cells[key] = int64(d)
		perFig[c.Fig] = append(perFig[c.Fig], fmt.Sprintf("%s=%d", c.Name, int64(d)))
	}
	for _, fig := range sortedKeys(perFig) {
		// Cell order within a figure is the fixed goldenCells order, but be
		// explicit: sort so the digest never depends on construction order.
		lines := perFig[fig]
		sort.Strings(lines)
		h := fnv.New64a()
		for _, l := range lines {
			fmt.Fprintln(h, l)
		}
		out.Digests[fig] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

const goldenPath = "testdata/golden_digests.json"

func TestGoldenDigests(t *testing.T) {
	got := computeGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden digests rewritten: %s", goldenPath)
		return
	}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for _, key := range sortedKeys(want.Cells) {
		if got.Cells[key] != want.Cells[key] {
			t.Errorf("cell %s: virtual time %d ps, golden %d ps", key, got.Cells[key], want.Cells[key])
		}
	}
	for _, key := range sortedKeys(got.Cells) {
		if _, ok := want.Cells[key]; !ok {
			t.Errorf("cell %s not in golden file (regenerate with -update-golden)", key)
		}
	}
	for _, fig := range sortedKeys(want.Digests) {
		if got.Digests[fig] != want.Digests[fig] {
			t.Errorf("figure %s: digest %s, golden %s — virtual-time behaviour changed", fig, got.Digests[fig], want.Digests[fig])
		}
	}
}

// TestGoldenProgramReferenceAgree pins the tentpole equivalence at the bench
// layer: every golden algorithm must measure the identical virtual time
// whether its ranks run as inline programs or as goroutine processes
// (reference mode). Wall-clock is the only permitted difference.
func TestGoldenProgramReferenceAgree(t *testing.T) {
	cfg := goldenConfig(hw.Quad)
	smp := goldenConfig(hw.SMP)
	for _, algo := range []string{
		mpi.BcastTreeShmem, mpi.BcastTreeSMP, mpi.BcastTreeDMAFIFO,
		mpi.BcastTreeDMADirect, mpi.BcastTreeShaddr,
		mpi.BcastTorusShaddr, mpi.BcastTorusFIFO, mpi.BcastTorusDirectPut,
	} {
		c := cfg
		if algo == mpi.BcastTreeSMP {
			c = smp
		}
		prog, err := bcastCell(c, algo, 64<<10, 2).Run(RunMode{})
		if err != nil {
			t.Fatalf("%s program mode: %v", algo, err)
		}
		ref, err := bcastCell(c, algo, 64<<10, 2).Run(RunMode{Reference: true})
		if err != nil {
			t.Fatalf("%s reference mode: %v", algo, err)
		}
		if prog != ref {
			t.Errorf("%s: program %d ps, reference %d ps", algo, int64(prog), int64(ref))
		}
	}
	for _, algo := range []string{mpi.AllreduceTorusNew, mpi.AllreduceTorusCurrent} {
		prog, err := allreduceCell(cfg, algo, 4096, 1).Run(RunMode{})
		if err != nil {
			t.Fatalf("%s program mode: %v", algo, err)
		}
		ref, err := allreduceCell(cfg, algo, 4096, 1).Run(RunMode{Reference: true})
		if err != nil {
			t.Fatalf("%s reference mode: %v", algo, err)
		}
		if prog != ref {
			t.Errorf("%s: program %d ps, reference %d ps", algo, int64(prog), int64(ref))
		}
	}
}

// TestGoldenRerunStable guards the digest harness itself: two in-process
// computations must agree, independent of the committed file.
func TestGoldenRerunStable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a, b := computeGolden(t), computeGolden(t)
	for _, k := range sortedKeys(a.Cells) {
		if b.Cells[k] != a.Cells[k] {
			t.Fatalf("cell %s unstable across reruns: %d vs %d", k, a.Cells[k], b.Cells[k])
		}
	}
}
