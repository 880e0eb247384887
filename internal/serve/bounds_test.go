package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/serve/reqspec"
)

// TestBuildCellBounds checks a /v1/run body, decoded over reqspec's
// defaults, is refused past the request bounds and accepted at both bounds
// themselves. Nothing is measured, so rows at the rank bound cost no world.
func TestBuildCellBounds(t *testing.T) {
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"default", `{"algo":"torus.shaddr"}`, true},
		{"size at bound", `{"algo":"torus.shaddr","size":"1024M","torus":"2x2x2"}`, true},
		{"size past bound", `{"algo":"torus.shaddr","size":"1025M","torus":"2x2x2"}`, false},
		{"2^62 bytes", `{"algo":"torus.shaddr","size":"4398046511104M"}`, false},
		{"size wraps to 1M", `{"algo":"torus.shaddr","size":"17592186044417M"}`, false},
		{"size zero", `{"algo":"torus.shaddr","size":"0"}`, false},
		{"ranks at bound", `{"algo":"torus.shaddr","torus":"64x64x64","mode":"quad"}`, true},
		{"ranks at bound, smp", `{"algo":"torus.shaddr","torus":"128x128x64","mode":"smp"}`, true},
		{"ranks past bound", `{"algo":"torus.shaddr","torus":"64x64x65","mode":"quad"}`, false},
		{"rack-scale flood", `{"algo":"torus.shaddr","torus":"4096x4096x4096"}`, false},
		{"one long dimension", `{"algo":"torus.shaddr","torus":"1x1x1048577","mode":"smp"}`, false},
		{"product overflows", `{"algo":"torus.shaddr","torus":"4294967296x4294967296x4","mode":"smp"}`, false},
		{"allreduce at bound", `{"op":"allreduce","algo":"allreduce.shaddr","size":"1024M","torus":"2x2x2"}`, true},
		{"allreduce past bound", `{"op":"allreduce","algo":"allreduce.shaddr","size":"1048577K","torus":"2x2x2"}`, false},
		{"iters at bound", fmt.Sprintf(`{"algo":"tree.shaddr","torus":"2x2x2","iters":%d}`, reqspec.MaxIters), true},
		{"iters past bound", fmt.Sprintf(`{"algo":"tree.shaddr","torus":"2x2x2","iters":%d}`, reqspec.MaxIters+1), false},
		{"iters max int", fmt.Sprintf(`{"algo":"tree.shaddr","torus":"2x2x2","iters":%d}`, int(^uint(0)>>1)), false},
	} {
		cell, err := runCell(strings.NewReader(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: runCell(%s) err = %v, want ok=%v", c.name, c.body, err, c.ok)
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
		q := newSweepRequest()
		q.Algos, q.Sizes, q.Torus = names(c.algos, "torus.shaddr"), names(c.sizes, "4K"), "2x2x2"
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

// FuzzBuildCell drives reqspec's Request.Cell with arbitrary request fields
// (seed corpus in testdata/fuzz/FuzzBuildCell), and buildSweep with the grid
// the comma-separated algo and size fields list. Neither may panic, and
// every cell they accept must lie inside the request bounds.
func FuzzBuildCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, algo, size, torus, mode string, iters int) {
		if cell, err := (reqspec.Request{Op: op, Algo: algo, Size: size, Torus: torus, Mode: mode, Iters: iters}).Cell(); err == nil {
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
	if ranks := c.Cfg.Ranks(); ranks < 1 || ranks > reqspec.MaxRanks {
		t.Errorf("accepted cell with %d ranks, bound %d", ranks, reqspec.MaxRanks)
	}
	if bytes := c.Bytes(); bytes < 1 || bytes > reqspec.MaxSize {
		t.Errorf("accepted cell with %d bytes, bound %d", bytes, reqspec.MaxSize)
	}
	if c.Iters < 1 || c.Iters > reqspec.MaxIters {
		t.Errorf("accepted cell with %d iters, bound %d", c.Iters, reqspec.MaxIters)
	}
}

// TestParseFigureQuery checks /v1/figure's query validation: plain positive
// decimals only, and one cell's resolved repetitions within reqspec.MaxIters,
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
