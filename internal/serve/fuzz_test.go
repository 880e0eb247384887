package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bgpcoll/internal/bench"
	"bgpcoll/internal/serve/reqspec"
	"bgpcoll/internal/sim"
)

// fuzzServer is a server whose cells cost nothing: the stub answers every
// cell with its payload size, so a fuzz target exercises decoding,
// validation, keying and the pool, never a simulation.
func fuzzServer(f *testing.F) *Server {
	srv := New(NewStore(), Config{RunCell: func(c bench.Cell) (sim.Time, error) {
		return sim.Time(c.Bytes()), nil
	}})
	f.Cleanup(srv.Close)
	return srv
}

// serveBody sends body to path through the server's handler and returns the
// response status.
func serveBody(srv *Server, path string, body []byte) int {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w.Code
}

// checkStatus fails unless a body the handler's own decoding and validation
// reject (err != nil) got a non-2xx answer, and an accepted one got 200.
func checkStatus(t *testing.T, body []byte, code int, err error) {
	t.Helper()
	switch {
	case err != nil && code >= 200 && code < 300:
		t.Fatalf("answered %d to a body the validator rejects (%v): %q", code, err, body)
	case err == nil && code != http.StatusOK:
		t.Fatalf("answered %d to a valid body: %q", code, body)
	}
}

// FuzzRunBody posts raw bytes to /v1/run: no body may panic the handler,
// and the status must agree with reqspec's Request.Cell.
func FuzzRunBody(f *testing.F) {
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		q := reqspec.Defaults()
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&q)
		if err == nil {
			_, err = q.Cell()
		}
		checkStatus(t, body, serveBody(srv, "/v1/run", body), err)
	})
}

// FuzzSweepBody posts raw bytes to /v1/sweep: no body may panic the
// handler, and the status must agree with buildSweep.
func FuzzSweepBody(f *testing.F) {
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		q := newSweepRequest()
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&q)
		if err == nil {
			_, err = buildSweep(q)
		}
		checkStatus(t, body, serveBody(srv, "/v1/sweep", body), err)
	})
}

// FuzzLoadCacheFile loads raw bytes as a persisted cache file. Load must
// not panic, a failed load must leave the store empty, every accepted entry
// must carry the key its canonical form derives, and what was loaded must
// survive a Save and a second Load unchanged.
func FuzzLoadCacheFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "cache.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewStore()
		n, err := s.Load(path)
		if err != nil {
			if n != 0 || s.Len() != 0 {
				t.Fatalf("failed load (%v) accepted %d entries, store holds %d", err, n, s.Len())
			}
			return
		}
		if s.Len() > n {
			t.Fatalf("store holds %d entries after accepting %d", s.Len(), n)
		}
		loaded := s.Snapshot()
		for _, e := range loaded {
			if rederiveKey(e.Canon) != e.Key {
				t.Fatalf("accepted entry with key %q, its canonical form derives %q", e.Key, rederiveKey(e.Canon))
			}
		}
		saved := filepath.Join(dir, "saved.json")
		if err := s.Save(saved); err != nil {
			t.Fatal(err)
		}
		again := NewStore()
		if _, err := again.Load(saved); err != nil {
			t.Fatalf("reloading a saved store: %v", err)
		}
		if got := again.Snapshot(); !reflect.DeepEqual(got, loaded) {
			t.Fatalf("save and reload changed the store: %d entries -> %d", len(loaded), len(got))
		}
	})
}
