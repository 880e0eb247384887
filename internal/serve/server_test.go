package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/mpi"
	"bgpcoll/internal/serve/reqspec"
	"bgpcoll/internal/sim"
)

// newTestServer builds a server and its httptest front end; the returned
// cleanup joins the pool.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(NewStore(), cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// TestFigureCachedByteIdenticalNoSimulation: a repeat of an identical
// figure request is served from the cache, byte-identical, and runs no
// simulation: the cold miss runs cells and no warm hit runs any. Counting
// cell runs proves the hit path deterministically, where a cold/warm
// wall-clock ratio depends on the host.
func TestFigureCachedByteIdenticalNoSimulation(t *testing.T) {
	bench.DrainWorldPool()
	defer bench.DrainWorldPool()
	var runs atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, RunCell: func(c bench.Cell) (sim.Time, error) {
		runs.Add(1)
		return c.Run(bench.RunMode{})
	}})
	url := ts.URL + "/v1/figure?id=fig6&quick=1&iters=1&racks=1"

	resp1, body1 := get(t, url)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold: %d %s", resp1.StatusCode, body1)
	}
	if v := resp1.Header.Get("X-Cache"); v != "miss" {
		t.Fatalf("cold X-Cache = %q", v)
	}
	if runs.Load() == 0 {
		t.Fatal("cold miss ran no cell")
	}

	for i := 0; i < 5; i++ {
		before := runs.Load()
		resp2, body2 := get(t, url)
		if resp2.StatusCode != 200 {
			t.Fatalf("warm: %d %s", resp2.StatusCode, body2)
		}
		if v := resp2.Header.Get("X-Cache"); v != "hit" {
			t.Fatalf("warm X-Cache = %q", v)
		}
		if n := runs.Load() - before; n != 0 {
			t.Fatalf("warm hit %d ran %d cells, want 0", i, n)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("warm response differs from cold:\ncold: %s\nwarm: %s", body1, body2)
		}
	}
	if s.metrics.Hits.Load() == 0 || s.metrics.Misses.Load() == 0 {
		t.Fatalf("metrics: hits=%d misses=%d", s.metrics.Hits.Load(), s.metrics.Misses.Load())
	}

	// The figure parses and carries the fig6 shape.
	var fig bench.Figure
	if err := json.Unmarshal(body1, &fig); err != nil {
		t.Fatal(err)
	}
	if fig.ID != "Fig6" || len(fig.Series) == 0 || len(fig.Sizes) == 0 {
		t.Fatalf("figure body: %+v", fig)
	}
}

// TestRunEndpointMatchesDirectMeasurement pins that an ad-hoc /v1/run answer
// is the same virtual time the bench API reports for the same request.
func TestRunEndpointMatchesDirectMeasurement(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/run",
		`{"op":"bcast","algo":"torus.shaddr","size":"64K","torus":"2x2x2","mode":"quad","iters":2}`)
	if resp.StatusCode != 200 {
		t.Fatalf("run: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Bytes int     `json:"bytes"`
		PS    int64   `json:"ps"`
		US    float64 `json:"us"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	c, err := (reqspec.Request{Op: "bcast", Algo: "torus.shaddr", Size: "64K", Torus: "2x2x2", Mode: "quad", Iters: 2}).Cell()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Run(bench.RunMode{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bytes != 64<<10 || out.PS != int64(want) || out.US != want.Microseconds() {
		t.Fatalf("run body %+v, want ps=%d", out, int64(want))
	}
}

// runPS posts body to /v1/run and returns the measured picoseconds and the
// X-Cache verdict.
func runPS(t *testing.T, url, body string) (int64, string) {
	t.Helper()
	resp, out := post(t, url+"/v1/run", body)
	if resp.StatusCode != 200 {
		t.Fatalf("POST %s: %d %s", body, resp.StatusCode, out)
	}
	var r struct {
		PS int64 `json:"ps"`
	}
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	return r.PS, resp.Header.Get("X-Cache")
}

// TestRunItersLiteral pins that a body's fields are taken literally: an
// explicit zero iteration count is refused, while a body without iters
// keeps the default of one and so shares its cache entry with "iters":1.
func TestRunItersLiteral(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/run", `{"algo":"torus.shaddr","size":"4K","torus":"2x2x2","iters":0}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "iters") {
		t.Fatalf(`"iters":0: %d %s, want a 400 naming iters`, resp.StatusCode, body)
	}
	absent, verdict := runPS(t, ts.URL, `{"algo":"torus.shaddr","size":"4K","torus":"2x2x2"}`)
	if verdict != "miss" {
		t.Fatalf("first run X-Cache = %q", verdict)
	}
	one, verdict := runPS(t, ts.URL, `{"algo":"torus.shaddr","size":"4K","torus":"2x2x2","iters":1}`)
	if verdict != "hit" || one != absent {
		t.Fatalf(`"iters":1 answered %d ps (%s), absent iters %d ps`, one, verdict, absent)
	}
}

// TestDoorsAgree pins that bgpsim and bgpsimd measure one request alike:
// bgpsim's path (Request.Cell, then Cell.RunOn on a fresh world) and
// /v1/run return the same picoseconds, for a non-zero root too.
func TestDoorsAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"algo":"tree.shaddr","size":"64K","torus":"2x2x2","iters":2}`,
		`{"op":"allreduce","size":"512K","torus":"2x2x2","mode":"smp","iters":4}`,
		`{"algo":"torus.fifo","size":"256K","torus":"2x2x2","iters":5,"root":5}`,
	} {
		q := reqspec.Defaults()
		if err := json.Unmarshal([]byte(body), &q); err != nil {
			t.Fatal(err)
		}
		c, err := q.Cell()
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		cli, err := c.RunOn(w, bench.RunMode{})
		if err != nil {
			t.Fatal(err)
		}
		if srv, _ := runPS(t, ts.URL, body); srv != int64(cli) {
			t.Errorf("%s: /v1/run %d ps, bgpsim's path %d ps", body, srv, int64(cli))
		}
	}
}

// TestSweepPartialOverlap warms one cell via /v1/run, then sweeps a grid
// containing it: the response must be partial (cell-level hits, not
// request-level), and the overlapping cell served from the store.
func TestSweepPartialOverlap(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, body := post(t, ts.URL+"/v1/run",
		`{"op":"bcast","algo":"torus.shaddr","size":"4K","torus":"2x2x2","iters":1}`); resp.StatusCode != 200 {
		t.Fatalf("warmup: %d %s", resp.StatusCode, body)
	}
	resp, body := post(t, ts.URL+"/v1/sweep",
		`{"op":"bcast","algos":["torus.shaddr"],"sizes":["4K","8K"],"torus":"2x2x2","iters":1}`)
	if resp.StatusCode != 200 {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	if v := resp.Header.Get("X-Cache"); v != "partial" {
		t.Fatalf("sweep X-Cache = %q, want partial", v)
	}
	if s.metrics.Hits.Load() != 1 {
		t.Fatalf("hits = %d, want the overlapping cell", s.metrics.Hits.Load())
	}
	var out struct {
		Cells []struct {
			Bytes int   `json:"bytes"`
			PS    int64 `json:"ps"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 2 || out.Cells[0].PS == 0 || out.Cells[1].PS == 0 {
		t.Fatalf("sweep body: %s", body)
	}
}

// TestHTTPBackpressure429 drives the server past its queue bound over real
// HTTP and checks the refusal is a 429 with the rejection counted.
func TestHTTPBackpressure429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers: 1, QueueCap: 1, ClientCap: 16,
		RunCell: func(c bench.Cell) (sim.Time, error) {
			started <- struct{}{}
			<-release
			return 1, nil
		},
	})
	body := func(size string) string {
		return fmt.Sprintf(`{"op":"bcast","algo":"torus.shaddr","size":%q,"torus":"2x2x2","iters":1}`, size)
	}
	codes := make([]int, 2)
	runConcurrently(3, func(i int) {
		switch i {
		case 0: // fills the worker; blocks until release
			resp, _ := post(t, ts.URL+"/v1/run", body("4K"))
			codes[0] = resp.StatusCode
		case 1: // fills the one queue slot once the worker provably holds case 0
			<-started
			resp, _ := post(t, ts.URL+"/v1/run", body("8K"))
			codes[1] = resp.StatusCode
		case 2:
			ok := spin(t, "pool saturated", func() bool { return s.metrics.Misses.Load() == 2 })
			if ok {
				resp, b := post(t, ts.URL+"/v1/run", body("64K"))
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("over-bound request: %d %s, want 429", resp.StatusCode, b)
				}
			}
			close(release) // even on spin failure, so the test cannot hang
		}
	})
	if codes[0] != 200 || codes[1] != 200 {
		t.Fatalf("admitted requests: %v", codes)
	}
	if s.metrics.Rejected.Load() != 1 {
		t.Fatalf("rejected = %d", s.metrics.Rejected.Load())
	}
}

// TestMetricsExposition checks the Prometheus text format carries the
// counters and histograms CI greps for.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/run", `{"op":"bcast","algo":"torus.shaddr","size":"4K","torus":"2x2x2","iters":1}`)
	post(t, ts.URL+"/v1/run", `{"op":"bcast","algo":"torus.shaddr","size":"4K","torus":"2x2x2","iters":1}`)
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"bgpsimd_cache_hits_total 1",
		"bgpsimd_cache_misses_total 1",
		"bgpsimd_cache_coalesced_total 0",
		"bgpsimd_cache_entries 1",
		"bgpsimd_compute_latency_ms_bucket{experiment=\"adhoc\",le=\"+Inf\"} 1",
		"bgpsimd_compute_latency_ms_count{experiment=\"adhoc\"} 1",
		"bgpsimd_extrapolated_iterations_total ",
		"bgpsimd_fingerprint_ms_bucket{le=\"+Inf\"} ",
		"bgpsimd_fingerprint_ms_count ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, do := range map[string]func() (*http.Response, []byte){
		"bad op":   func() (*http.Response, []byte) { return post(t, ts.URL+"/v1/run", `{"op":"scan","algo":"x"}`) },
		"bad algo": func() (*http.Response, []byte) { return post(t, ts.URL+"/v1/run", `{"algo":"torus.nope"}`) },
		"bad size": func() (*http.Response, []byte) {
			return post(t, ts.URL+"/v1/run", `{"algo":"torus.shaddr","size":"lots"}`)
		},
		"bad torus": func() (*http.Response, []byte) {
			return post(t, ts.URL+"/v1/run", `{"algo":"torus.shaddr","torus":"8x8"}`)
		},
		"bad body":    func() (*http.Response, []byte) { return post(t, ts.URL+"/v1/run", `{`) },
		"bad figure":  func() (*http.Response, []byte) { return get(t, ts.URL+"/v1/figure?id=figs") },
		"bad iters":   func() (*http.Response, []byte) { return get(t, ts.URL+"/v1/figure?id=fig6&iters=zero") },
		"bad scale":   func() (*http.Response, []byte) { return get(t, ts.URL+"/v1/figure?id=fig6&iters_scale=0") },
		"empty sweep": func() (*http.Response, []byte) { return post(t, ts.URL+"/v1/sweep", `{"algos":[],"sizes":[]}`) },
	} {
		resp, body := do()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", name, body)
		}
	}
	if resp, _ := get(t, ts.URL+"/v1/run"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: %d, want 405", resp.StatusCode)
	}
}
