// Command becaused is the BeCAUSe serving daemon: a long-running HTTP
// service that answers inference queries over labeled path observations.
//
// Usage:
//
//	becaused [-addr 127.0.0.1:8642] [-jobs N] [-queue N] [-cache N]
//	         [-chain-workers N] [-drain-timeout 30s] [-log-level info]
//
// Endpoints:
//
//	POST /v1/infer   {"observations":[{"path":[64500,64510],"positive":true}],
//	                  "options":{"seed":1}}
//	                 ?async=1 detaches: 202 + job ID, poll the job API.
//	                 ?stream=1 streams progress + result over SSE inline;
//	                 dropping the connection cancels the job (499).
//	GET  /v1/jobs/{id}         job status: lifecycle state, event counts,
//	                           the request-scoped trace, result when done
//	GET  /v1/jobs/{id}/events  SSE progress stream (?cursor=N replays from
//	                           sequence N; gapless, then follows live)
//	DELETE /v1/jobs/{id}       cancel a running job
//	GET  /healthz    readiness (503 while draining)
//	GET  /metrics    Prometheus text exposition
//
// Every accepted inference — synchronous, streamed or detached — mints a
// job whose status and deterministic trace stay queryable afterwards
// (bounded retention; terminal jobs are evicted oldest-first).
//
// Backpressure: at most -jobs inferences sample concurrently and at most
// -queue more wait; beyond that POSTs are rejected with 429 + Retry-After.
// Identical queries (same observations, options and seed) are served from
// a deterministic result cache — inference is bit-identical per key, so a
// hit is exact, not approximate. SIGTERM/SIGINT drain: in-flight jobs run
// to completion (up to -drain-timeout) before the process exits 0.
//
// Exit codes: 0 clean shutdown, 1 runtime failure, 2 bad flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"because/internal/obs"
	"because/internal/serve"
)

type options struct {
	addr         string
	jobs         int
	queue        int
	cache        int
	chainWorkers int
	drainTimeout time.Duration
	logLevel     string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8642", "listen address (host:port; port 0 picks a free port)")
	flag.IntVar(&o.jobs, "jobs", 0, "max concurrent inference jobs (0 = all cores)")
	flag.IntVar(&o.queue, "queue", 0, "admitted jobs that may wait beyond the running ones (0 = 2×jobs, -1 = none)")
	flag.IntVar(&o.cache, "cache", 128, "result-cache entries (0 = default 128, -1 disables)")
	flag.IntVar(&o.chainWorkers, "chain-workers", 1, "workers per inference job; results are identical at any setting")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs")
	flag.StringVar(&o.logLevel, "log-level", "", "structured log level on stderr: debug, info, warn, error (default: off)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "becaused:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	observer, err := obs.NewLeveled(o.logLevel, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "becaused:", err)
		os.Exit(2)
	}
	srv := serve.New(serve.Config{
		Jobs:         o.jobs,
		QueueDepth:   o.queue,
		CacheSize:    o.cache,
		ChainWorkers: o.chainWorkers,
		Obs:          observer,
	})
	addr, err := srv.Start(o.addr)
	if err != nil {
		return err
	}
	// The smoke harness (and humans) parse this line for the bound port.
	fmt.Printf("becaused: listening on %s\n", addr)
	observer.Log(obs.LevelInfo, "becaused started", "addr", addr,
		"jobs", o.jobs, "queue", o.queue, "cache", o.cache)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop() // restore default signal behaviour: a second signal kills hard

	fmt.Println("becaused: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("becaused: drained, exiting")
	return nil
}
