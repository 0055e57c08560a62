// Command gsqld serves the graphsql engine over HTTP as a long-running
// query service: a named multi-graph registry with copy-on-swap
// reloads, per-session prepared plans and settings (plus wire-level
// POST /prepare + /execute), an admission-control scheduler that
// divides the machine's worker budget across concurrent queries, a
// result-set cache serving repeated SELECTs without engine work,
// chunked streaming responses for large results ("stream": true), and
// Prometheus metrics at GET /metrics.
//
//	$ gsqld -addr :8765 -load social.sql
//	$ curl -s localhost:8765/healthz
//	$ curl -s -X POST localhost:8765/query \
//	    -d '{"sql": "SELECT CHEAPEST SUM(1) WHERE ? REACHES ? OVER knows EDGE (src, dst)", "args": [1, 42]}'
//	$ curl -s -X POST localhost:8765/query -d '{"sql": "SELECT * FROM knows", "stream": true}'
//	$ curl -s localhost:8765/metrics | grep gsqld_cache
//
// Disconnecting a client (or a -timeout / timeout_ms expiry) cancels
// the query's context; cancellation reaches inside a single running
// traversal (every 4096 queue pops in BFS/Dijkstra), so an abandoned
// query frees its worker grant within milliseconds — see the README's
// "Cancellation granularity". A request canceled while queued for
// admission never consumes a slot.
//
// See the README's "Running as a server" section for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"graphsql/internal/fault"
	"graphsql/internal/server"
)

func main() {
	addr := flag.String("addr", ":8765", "listen address")
	graphName := flag.String("graph", "default", "name of the default graph")
	load := flag.String("load", "", "SQL script file loaded into the default graph at startup")
	parallelism := flag.Int("parallelism", 0, "engine worker budget per graph (0 = one per CPU)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max queries waiting for admission (0 = 4x max-inflight)")
	totalWorkers := flag.Int("workers", 0, "total worker budget divided across queries (0 = GOMAXPROCS)")
	perQuery := flag.Int("per-query-workers", 0, "per-query worker cap (0 = total budget)")
	timeout := flag.Duration("timeout", 0, "per-query execution timeout (0 = none)")
	queueWait := flag.Duration("queue-wait", 0, "max time a query may wait for admission before a 503 queue_timeout with Retry-After (0 = wait forever)")
	cacheEntries := flag.Int("cache-entries", 0, "result-cache entry cap (0 = 512, negative disables the cache)")
	cacheBytes := flag.Int64("cache-bytes", 0, "result-cache byte budget (0 = 64 MiB)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log queries at/over this many milliseconds at WARN as a structured \"slow query\" line (0 disables, negative logs every query)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof profiling endpoints on this address (empty disables; never expose publicly)")
	flag.Parse()

	if fault.Enabled() {
		log.Printf("gsqld: FAULT INJECTION ARMED via GSQLD_FAULTS=%q — not for production", os.Getenv("GSQLD_FAULTS"))
	}

	// The query log is machine-parsed (msg="slow query" key=value
	// lines), so it gets a real TextHandler rather than slog's
	// log-package bridge.
	queryLog := slog.New(slog.NewTextHandler(os.Stderr, nil))

	srv, err := server.New(server.Config{
		DefaultGraph:    *graphName,
		Parallelism:     *parallelism,
		MaxInFlight:     *maxInFlight,
		QueueDepth:      *queueDepth,
		TotalWorkers:    *totalWorkers,
		PerQueryWorkers: *perQuery,
		QueryTimeout:    *timeout,
		QueueWait:       *queueWait,
		CacheEntries:    *cacheEntries,
		CacheBytes:      *cacheBytes,
		SlowQueryMillis: *slowQueryMS,
		Logger:          queryLog,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *load != "" {
		script, err := os.ReadFile(*load)
		if err != nil {
			log.Fatal(err)
		}
		gen, tables, err := srv.Registry().Load(context.Background(), *graphName, string(script), nil)
		if err != nil {
			log.Fatalf("loading %s: %v", *load, err)
		}
		log.Printf("graph %q loaded from %s: %d table(s), generation %d", *graphName, *load, tables, gen)
	}

	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux at import; serving the
		// default mux on a separate listener keeps profiling off the
		// query port.
		//gsqlvet:allow parbudget process-lifetime debug listener, not per-query work
		go func() {
			log.Printf("pprof profiling on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	//gsqlvet:allow parbudget HTTP accept loop; per-query concurrency is budgeted at admission
	go func() { done <- hs.ListenAndServe() }()
	log.Printf("gsqld listening on %s (default graph %q)", *addr, *graphName)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case s := <-sig:
		log.Printf("received %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}
}
