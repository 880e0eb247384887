package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"bgpcoll/internal/bench"
)

// TestBuildCellBounds checks buildCell rejects payloads and partitions past
// the request bounds, and accepts both bounds themselves.
func TestBuildCellBounds(t *testing.T) {
	for _, c := range []struct {
		name string
		q    runRequest
		ok   bool
	}{
		{"default", runRequest{Algo: "torus.shaddr"}, true},
		{"size at bound", runRequest{Algo: "torus.shaddr", Size: "1024M", Torus: "2x2x2"}, true},
		{"size past bound", runRequest{Algo: "torus.shaddr", Size: "1025M", Torus: "2x2x2"}, false},
		{"2^62 bytes", runRequest{Algo: "torus.shaddr", Size: "4398046511104M"}, false},
		{"size wraps to 1M", runRequest{Algo: "torus.shaddr", Size: "17592186044417M"}, false},
		{"size zero", runRequest{Algo: "torus.shaddr", Size: "0"}, false},
		{"ranks at bound", runRequest{Algo: "torus.shaddr", Torus: "64x64x64", Mode: "quad"}, true},
		{"ranks at bound, smp", runRequest{Algo: "torus.shaddr", Torus: "128x128x64", Mode: "smp"}, true},
		{"ranks past bound", runRequest{Algo: "torus.shaddr", Torus: "64x64x65", Mode: "quad"}, false},
		{"rack-scale flood", runRequest{Algo: "torus.shaddr", Torus: "4096x4096x4096"}, false},
		{"one long dimension", runRequest{Algo: "torus.shaddr", Torus: "1x1x1048577", Mode: "smp"}, false},
		{"product overflows", runRequest{Algo: "torus.shaddr", Torus: "4294967296x4294967296x4", Mode: "smp"}, false},
		{"allreduce at bound", runRequest{Op: "allreduce", Algo: "allreduce.shaddr", Size: "1024M", Torus: "2x2x2"}, true},
		{"allreduce past bound", runRequest{Op: "allreduce", Algo: "allreduce.shaddr", Size: "1048577K", Torus: "2x2x2"}, false},
		{"iters at bound", runRequest{Algo: "tree.shaddr", Torus: "2x2x2", Iters: maxIters}, true},
		{"iters past bound", runRequest{Algo: "tree.shaddr", Torus: "2x2x2", Iters: maxIters + 1}, false},
		{"iters max int", runRequest{Algo: "tree.shaddr", Torus: "2x2x2", Iters: int(^uint(0) >> 1)}, false},
	} {
		cell, err := buildCell(c.q)
		if (err == nil) != c.ok {
			t.Errorf("%s: buildCell(%+v) err = %v, want ok=%v", c.name, c.q, err, c.ok)
			continue
		}
		if err == nil {
			checkCellBounds(t, cell)
		}
	}
}

// TestBuildSweepBounds checks buildSweep rejects a grid past maxSweepCells,
// including lengths whose product would overflow, and accepts the bound.
func TestBuildSweepBounds(t *testing.T) {
	names := func(n int, name string) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = name
		}
		return s
	}
	for _, c := range []struct {
		name         string
		algos, sizes int
		ok           bool
	}{
		{"empty", 0, 4, false},
		{"at bound", 32, maxSweepCells / 32, true},
		{"past bound", 33, maxSweepCells / 32, false},
		{"one long axis", maxSweepCells + 1, 1, false},
	} {
		q := sweepRequest{Algos: names(c.algos, "torus.shaddr"), Sizes: names(c.sizes, "4K"), Torus: "2x2x2"}
		cells, err := buildSweep(q)
		if (err == nil) != c.ok {
			t.Errorf("%s: buildSweep(%d x %d) err = %v, want ok=%v", c.name, c.algos, c.sizes, err, c.ok)
			continue
		}
		if err == nil && len(cells) != c.algos*c.sizes {
			t.Errorf("%s: %d cells, want %d", c.name, len(cells), c.algos*c.sizes)
		}
	}
}

// TestRunRejectsOversizedRequests checks the bounds reach clients as 400s.
func TestRunRejectsOversizedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"algo":"torus.shaddr","size":"4398046511104M","torus":"2x2x2"}`,
		`{"algo":"torus.shaddr","size":"64K","torus":"4096x4096x4096"}`,
		`{"algo":"tree.shaddr","size":"64K","torus":"2x2x2","iters":1000000000}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSweepRejectsOversizedGrid checks the grid bound reaches clients as a
// 400.
func TestSweepRejectsOversizedGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sizes := strings.Repeat(`"4K",`, maxSweepCells)
	body := fmt.Sprintf(`{"op":"bcast","algos":["torus.shaddr","torus.fifo"],"sizes":[%s"8K"],"torus":"2x2x2"}`, sizes)
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized sweep: status %d, want 400", resp.StatusCode)
	}
}

// FuzzBuildCell drives buildCell with arbitrary request fields (seed corpus
// in testdata/fuzz/FuzzBuildCell), and buildSweep with the grid the
// comma-separated algo and size fields list. Neither may panic, and every
// cell they accept must lie inside the request bounds.
func FuzzBuildCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, algo, size, torus, mode string, iters int) {
		if cell, err := buildCell(runRequest{Op: op, Algo: algo, Size: size, Torus: torus, Mode: mode, Iters: iters}); err == nil {
			checkCellBounds(t, cell)
		}
		q := sweepRequest{Op: op, Algos: strings.Split(algo, ","), Sizes: strings.Split(size, ","), Torus: torus, Mode: mode, Iters: iters}
		cells, err := buildSweep(q)
		if err != nil {
			return
		}
		if len(cells) > maxSweepCells {
			t.Errorf("accepted a sweep of %d cells, bound %d", len(cells), maxSweepCells)
		}
		for _, c := range cells {
			checkCellBounds(t, c)
		}
	})
}

func checkCellBounds(t *testing.T, c bench.Cell) {
	t.Helper()
	if ranks := c.Cfg.Ranks(); ranks < 1 || ranks > maxRanks {
		t.Errorf("accepted cell with %d ranks, bound %d", ranks, maxRanks)
	}
	if bytes := c.Bytes(); bytes < 1 || bytes > maxSize {
		t.Errorf("accepted cell with %d bytes, bound %d", bytes, maxSize)
	}
	if c.Iters < 1 || c.Iters > maxIters {
		t.Errorf("accepted cell with %d iters, bound %d", c.Iters, maxIters)
	}
}

// TestParseFigureQuery checks /v1/figure's query validation: plain positive
// decimals only, and one cell's resolved repetitions within maxIters,
// including products that would overflow an int.
func TestParseFigureQuery(t *testing.T) {
	for _, c := range []struct {
		name, query string
		ok          bool
	}{
		{"documented fig6", "id=fig6&quick=1&iters=1&racks=1", true},
		{"documented fig7", "id=fig7&quick=1", true},
		{"iters at bound", "id=fig7&quick=1&iters=1024", true},
		{"iters x scale at bound", "id=fig7&quick=1&iters=32&iters_scale=32", true},
		{"iters past bound", "id=fig7&quick=1&iters=1025", false},
		{"huge iters", "id=fig7&quick=1&iters=1073741824", false},
		{"product past bound", "id=fig7&quick=1&iters=33&iters_scale=32", false},
		{"product overflows", "id=fig7&quick=1&iters=4294967296&iters_scale=4294967296", false},
		{"scale times default past bound", "id=fig7&quick=1&iters_scale=1024", false},
		{"trailing junk", "id=fig6&quick=1&iters=3abc", false},
		{"junk scale", "id=fig6&quick=1&iters_scale=2x", false},
		{"space-padded iters", "id=fig6&quick=1&iters=+3", false},
		{"zero iters", "id=fig6&quick=1&iters=0", false},
		{"negative racks", "id=fig6&quick=1&racks=-1", false},
		{"unknown rack preset", "id=fig7&quick=1&racks=3", false},
		{"unknown figure", "id=figs", false},
	} {
		q, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		plan, err := parseFigureQuery(q)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
			continue
		}
		if err == nil {
			checkPlanBounds(t, plan)
		}
	}
}

// FuzzFigureQuery drives parseFigureQuery with arbitrary raw query strings
// (seed corpus in testdata/fuzz/FuzzFigureQuery). It may not panic, and
// every plan it accepts must stay inside the request bounds.
func FuzzFigureQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		if plan, err := parseFigureQuery(q); err == nil {
			checkPlanBounds(t, plan)
		}
	})
}

func checkPlanBounds(t *testing.T, plan *bench.FigurePlan) {
	t.Helper()
	for _, c := range plan.Cells {
		checkCellBounds(t, c)
	}
}
