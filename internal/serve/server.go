// HTTP surface of bgpsimd. Three request shapes, one cache: a single run
// (POST /v1/run), a sweep grid (POST /v1/sweep), and a whole named figure
// (GET /v1/figure) all decompose into cells before touching the pool, so a
// figure request warms the cache for the ad-hoc requests inside it and vice
// versa. Response bodies are rebuilt from cached picosecond entries through
// pure conversions and deterministic JSON marshaling (struct fields only, no
// maps), so a warm response is byte-identical to the cold one; cache status
// travels in the X-Cache header (hit / partial / miss), never in the body.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/serve/reqspec"
	"bgpcoll/internal/sim"
)

// Config sizes a server.
type Config struct {
	Workers   int // pool workers (0 = 1)
	QueueCap  int // max cells waiting for a worker (0 = 64)
	ClientCap int // max outstanding cells per client (0 = QueueCap)

	// RunCell overrides cell execution; tests inject counters or blockers
	// here. nil = Cell.Run in the production vehicle.
	RunCell func(bench.Cell) (sim.Time, error)
}

// Server is the bgpsimd HTTP handler set plus its store, pool, and metrics.
type Server struct {
	store   *Store
	metrics *Metrics
	pool    *Pool
	mux     *http.ServeMux
}

// New builds a server around store (which may be pre-loaded from a cache
// file). Close must be called to join the worker pool.
func New(store *Store, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.ClientCap <= 0 {
		cfg.ClientCap = cfg.QueueCap
	}
	run := cfg.RunCell
	if run == nil {
		run = func(c bench.Cell) (sim.Time, error) { return c.Run(bench.RunMode{}) }
	}
	s := &Server{store: store, metrics: NewMetrics()}
	// Feed the fingerprint-latency histogram from the bench extrapolator.
	// The observer is process-wide; the newest server wins, which is the
	// running one everywhere outside multi-server tests.
	bench.SetFingerprintObserver(func(d time.Duration) {
		s.metrics.ObserveFingerprint(float64(d.Nanoseconds()) / 1e6)
	})
	s.pool = NewPool(store, s.metrics, cfg.Workers, cfg.QueueCap, cfg.ClientCap, run)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/run", s.handleRun)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/figure", s.handleFigure)
	return s
}

// ServeHTTP dispatches to the endpoint handlers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics exposes the instrumentation (for the main package's final stats).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close joins the worker pool. Call after the HTTP listener has stopped.
func (s *Server) Close() { s.pool.Close() }

// client extracts the fairness identity: the peer host, so one misbehaving
// host cannot starve others however many connections it opens.
func client(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w, s.store)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// submit runs cells through the pool and writes obj as the JSON response
// body with the X-Cache verdict, mapping ErrBusy to 429.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, cells []bench.Cell, body func(entries []Entry) any) {
	entries, hits, err := s.pool.Submit(client(r), cells)
	if errors.Is(err, ErrBusy) {
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	verdict := "miss"
	switch {
	case hits == len(cells):
		verdict = "hit"
	case hits > 0:
		verdict = "partial"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", verdict)
	data, err := json.Marshal(body(entries))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Write(append(data, '\n'))
}

// cellResult is one measurement in a response body.
type cellResult struct {
	Series string  `json:"series"`
	Bytes  int     `json:"bytes"`
	PS     int64   `json:"ps"`
	US     float64 `json:"us"`
}

func resultOf(c bench.Cell, e Entry) cellResult {
	return cellResult{Series: c.Series, Bytes: c.Bytes(), PS: e.PS, US: sim.Time(e.PS).Microseconds()}
}

// maxSweepCells caps a sweep's algos x sizes grid; every other request
// bound is reqspec's, which bgpsim shares.
const maxSweepCells = 1024

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	c, err := runCell(r.Body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.respond(w, r, []bench.Cell{c}, func(entries []Entry) any {
		return resultOf(c, entries[0])
	})
}

// runCell decodes a /v1/run body into the cell it names. A field the body
// leaves out keeps its reqspec default.
func runCell(body io.Reader) (bench.Cell, error) {
	q := reqspec.Defaults()
	if err := json.NewDecoder(body).Decode(&q); err != nil {
		return bench.Cell{}, fmt.Errorf("bad request body: %v", err)
	}
	return q.Cell()
}

// sweepRequest is the /v1/sweep body: a grid of algorithms x sizes over one
// partition, decomposed into one /v1/run request each.
type sweepRequest struct {
	Op    string   `json:"op"`
	Algos []string `json:"algos"`
	Sizes []string `json:"sizes"`
	Torus string   `json:"torus"`
	Mode  string   `json:"mode"`
	Iters int      `json:"iters"`
}

// newSweepRequest returns a sweep body pre-filled with reqspec's defaults,
// so a field the body leaves out means what it means in /v1/run.
func newSweepRequest() sweepRequest {
	d := reqspec.Defaults()
	return sweepRequest{Op: d.Op, Torus: d.Torus, Mode: d.Mode, Iters: d.Iters}
}

// buildSweep validates a sweepRequest into its cells, algorithm-major. The
// grid's size is checked before anything is allocated for it.
func buildSweep(q sweepRequest) ([]bench.Cell, error) {
	na, ns := len(q.Algos), len(q.Sizes)
	if na == 0 || ns == 0 {
		return nil, fmt.Errorf("sweep needs algos and sizes")
	}
	// Each length is checked first so the product cannot overflow.
	if na > maxSweepCells || ns > maxSweepCells || na*ns > maxSweepCells {
		return nil, fmt.Errorf("sweep grid of %d algos x %d sizes has more than %d cells", na, ns, maxSweepCells)
	}
	cells := make([]bench.Cell, 0, na*ns)
	for _, algo := range q.Algos {
		for _, size := range q.Sizes {
			c, err := reqspec.Request{Op: q.Op, Algo: algo, Size: size, Torus: q.Torus, Mode: q.Mode, Iters: q.Iters}.Cell()
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	q := newSweepRequest()
	if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	cells, err := buildSweep(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.respond(w, r, cells, func(entries []Entry) any {
		out := struct {
			Cells []cellResult `json:"cells"`
		}{Cells: make([]cellResult, len(cells))}
		for i := range cells {
			out.Cells[i] = resultOf(cells[i], entries[i])
		}
		return out
	})
}

// parseFigureQuery validates a /v1/figure query into its cell plan. iters,
// iters_scale and racks must be plain positive decimals, and one cell's
// resolved repetitions — iters (or the figure's default) times iters_scale —
// may not pass reqspec.MaxIters: tree cells bypass extrapolation and run
// every iteration. Each factor is bounded before the product is formed, so
// the check cannot overflow.
func parseFigureQuery(q url.Values) (*bench.FigurePlan, error) {
	o := bench.Options{Quick: q.Get("quick") == "1" || q.Get("quick") == "true"}
	for _, f := range []struct {
		name string
		dst  *int
	}{{"iters", &o.Iters}, {"iters_scale", &o.ItersScale}, {"racks", &o.Racks}} {
		v := q.Get(f.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s %q", f.name, v)
		}
		*f.dst = n
	}
	if o.Iters > reqspec.MaxIters || o.ItersScale > reqspec.MaxIters || max(o.Iters, 1)*max(o.ItersScale, 1) > reqspec.MaxIters {
		return nil, fmt.Errorf("iters %d x iters_scale %d exceeds %d repetitions", o.Iters, o.ItersScale, reqspec.MaxIters)
	}
	plan, err := bench.PlanExperiment(q.Get("id"), o)
	if err != nil {
		return nil, err
	}
	for _, c := range plan.Cells {
		if c.Iters > reqspec.MaxIters {
			return nil, fmt.Errorf("%s resolves to %d repetitions per cell, bound %d", c.Experiment, c.Iters, reqspec.MaxIters)
		}
	}
	return plan, nil
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	plan, err := parseFigureQuery(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.respond(w, r, plan.Cells, func(entries []Entry) any {
		times := make([]sim.Time, len(entries))
		for i, e := range entries {
			times[i] = sim.Time(e.PS)
		}
		return plan.Assemble(times)
	})
}
