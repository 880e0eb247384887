// Command bgpsimd serves the simulator over HTTP with a content-addressed
// result cache: the kernel is bit-deterministic, so every measurement has
// exactly one answer forever, and answering a repeated request is a map
// lookup instead of a multi-second simulation.
//
//	bgpsimd -addr :8377 -workers 4 -cache-file /var/tmp/bgpsimd.json
//
//	curl -s localhost:8377/v1/figure?id=fig6\&quick=1      # cold: simulates
//	curl -s localhost:8377/v1/figure?id=fig6\&quick=1      # warm: cache hit
//	curl -s localhost:8377/metrics | grep bgpsimd_cache
//
// Endpoints: GET /healthz, GET /metrics (Prometheus text format),
// POST /v1/run (one measurement), POST /v1/sweep (an algorithms x sizes
// grid), GET /v1/figure?id=fig6..fig10|table1 (a whole paper figure,
// decomposed into per-cell cache keys so partial overlap still hits).
//
// -cache-file persists the store as JSON on shutdown (SIGINT/SIGTERM) and
// reloads it on start; entries are content-verified on load, so a stale or
// corrupted file degrades to cache misses, never to wrong answers.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"bgpcoll/internal/coll"
	"bgpcoll/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	workers := flag.Int("workers", 2, "simulation worker goroutines")
	queue := flag.Int("queue", 64, "max cells queued for execution (excess requests get 429)")
	perClient := flag.Int("per-client", 32, "max outstanding cells per client host")
	cacheFile := flag.String("cache-file", "", "persist/load the result store as JSON at this path")
	flag.Parse()

	coll.Register()
	store := serve.NewStore()
	if *cacheFile != "" {
		if n, err := store.Load(*cacheFile); err == nil {
			fmt.Printf("bgpsimd: loaded %d cached measurements from %s\n", n, *cacheFile)
		} else if !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "bgpsimd:", err)
			os.Exit(1)
		}
	}

	srv := serve.New(store, serve.Config{
		Workers:   *workers,
		QueueCap:  *queue,
		ClientCap: *perClient,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// Serve until SIGINT/SIGTERM, then stop the listener, join the worker
	// pool, and persist the store.
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	fmt.Printf("bgpsimd: listening on %s (%d workers, queue %d)\n", *addr, *workers, *queue)
	select {
	case sig := <-sigc:
		fmt.Printf("bgpsimd: %v, shutting down\n", sig)
		httpSrv.Close()
		<-errc
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "bgpsimd:", err)
		srv.Close()
		os.Exit(1)
	}
	srv.Close()

	if *cacheFile != "" {
		if err := store.Save(*cacheFile); err != nil {
			fmt.Fprintln(os.Stderr, "bgpsimd: saving cache:", err)
			os.Exit(1)
		}
		fmt.Printf("bgpsimd: saved %d measurements to %s\n", store.Len(), *cacheFile)
	}
}
