package serve

import (
	"net/http"
	"strings"
	"testing"
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
	} {
		cell, err := buildCell(c.q)
		if (err == nil) != c.ok {
			t.Errorf("%s: buildCell(%+v) err = %v, want ok=%v", c.name, c.q, err, c.ok)
			continue
		}
		if err == nil {
			checkCellBounds(t, cell.Cfg.Ranks(), cell.Bytes())
		}
	}
}

// TestRunRejectsOversizedRequests checks the bounds reach clients as 400s.
func TestRunRejectsOversizedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"algo":"torus.shaddr","size":"4398046511104M","torus":"2x2x2"}`,
		`{"algo":"torus.shaddr","size":"64K","torus":"4096x4096x4096"}`,
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

// FuzzBuildCell drives buildCell with arbitrary request fields (seed corpus
// in testdata/fuzz/FuzzBuildCell). It must never panic, and every cell it
// accepts must lie inside the request bounds.
func FuzzBuildCell(f *testing.F) {
	f.Fuzz(func(t *testing.T, op, algo, size, torus, mode string, iters int) {
		cell, err := buildCell(runRequest{Op: op, Algo: algo, Size: size, Torus: torus, Mode: mode, Iters: iters})
		if err != nil {
			return
		}
		checkCellBounds(t, cell.Cfg.Ranks(), cell.Bytes())
	})
}

func checkCellBounds(t *testing.T, ranks, bytes int) {
	t.Helper()
	if ranks < 1 || ranks > maxRanks {
		t.Errorf("accepted cell with %d ranks, bound %d", ranks, maxRanks)
	}
	if bytes < 1 || bytes > maxSize {
		t.Errorf("accepted cell with %d bytes, bound %d", bytes, maxSize)
	}
}
