// Command swkmeansd is the resilient online-serving daemon: k-means as
// a live service. It holds immutable, epoch-numbered model snapshots
// (centroids sharded by range) swapped atomically, while a background
// trainer ingests a deterministic sample stream through the epoch
// engine's mini-batch path and publishes new epochs. The query path
// answers nearest-centroid assignments over HTTP/JSON with per-request
// deadlines, bounded admission that sheds load explicitly, per-
// connection panic recovery, health/readiness endpoints and a graceful
// drain on SIGTERM; a seeded wall-clock chaos plan (fault.ParsePlan
// syntax, remapped per docs/SERVING.md) exercises trainer crashes,
// straggling shards, dropped publishes and degraded links.
//
// Examples:
//
//	swkmeansd -addr 127.0.0.1:8147 -k 8 -d 16
//	swkmeansd -addr 127.0.0.1:0 -addr-file /tmp/addr \
//	    -chaos "seed=7; crash=0@0.6; slow=1x6; msg=0.15" \
//	    -metrics-out metrics.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8147", "listen address (port 0 picks a free port)")
		addrFile   = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts)")
		k          = flag.Int("k", 8, "centroids")
		d          = flag.Int("d", 16, "stream dimensionality")
		components = flag.Int("components", 8, "ground-truth components of the synthetic stream")
		streamN    = flag.Int("stream-n", 65536, "cycle length of the deterministic sample stream")
		seed       = flag.Uint64("seed", 1, "deterministic seed (stream, training, chaos)")
		batch      = flag.Int("batch", 256, "samples ingested per training round")
		miniBatch  = flag.Int("minibatch", 32, "per-rank mini-batch inside the epoch engine rounds")
		roundIters = flag.Int("round-iters", 3, "engine iterations per training round")
		interval   = flag.Duration("train-interval", 50*time.Millisecond, "pacing between training rounds")
		shards     = flag.Int("shards", 4, "centroid-range query shards per snapshot")
		nodes      = flag.Int("nodes", 1, "simulated machine nodes for the training rounds")
		queue      = flag.Int("queue", 64, "admission queue depth; excess load is shed with 429")
		deadline   = flag.Duration("deadline", 250*time.Millisecond, "default per-request deadline")
		staleAfter = flag.Duration("stale-after", 2*time.Second, "snapshot age past which responses report degraded")
		backoff    = flag.Duration("restart-backoff", 200*time.Millisecond, "trainer restart backoff after a crash")
		chaosSpec  = flag.String("chaos", "", "seeded wall-clock chaos plan (fault.ParsePlan syntax, see docs/SERVING.md)")
		delayUnit  = flag.Duration("delay-unit", serve.DefaultDelayUnit, "base latency quantum chaos factors multiply")
		metricsOut = flag.String("metrics-out", "", "append JSONL metrics lines to this file")
		metricsInt = flag.Duration("metrics-interval", 500*time.Millisecond, "metrics line interval")
		drainWait  = flag.Duration("drain-timeout", 5*time.Second, "graceful drain budget on SIGTERM")
	)
	flag.Parse()
	// Exit code contract, like cmd/swkmeans: 2 for unusable flags, 1
	// for runtime failures.
	var plan fault.Plan
	if *chaosSpec != "" {
		var err error
		plan, err = fault.ParsePlan(*chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swkmeansd: -chaos:", err)
			os.Exit(2)
		}
	}
	if err := run(options{
		addr: *addr, addrFile: *addrFile,
		k: *k, d: *d, components: *components, streamN: *streamN, seed: *seed,
		batch: *batch, miniBatch: *miniBatch, roundIters: *roundIters,
		interval: *interval, shards: *shards, nodes: *nodes,
		queue: *queue, deadline: *deadline, staleAfter: *staleAfter,
		backoff: *backoff, plan: plan, delayUnit: *delayUnit,
		metricsOut: *metricsOut, metricsInt: *metricsInt, drainWait: *drainWait,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "swkmeansd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr, addrFile                string
	k, d, components, streamN     int
	seed                          uint64
	batch, miniBatch, roundIters  int
	interval                      time.Duration
	shards, nodes, queue          int
	deadline, staleAfter, backoff time.Duration
	plan                          fault.Plan
	delayUnit                     time.Duration
	metricsOut                    string
	metricsInt, drainWait         time.Duration
}

func run(o options) error {
	src, err := dataset.NewGaussianMixture("stream", o.streamN, o.d, o.components, 0.25, 2.0, o.seed)
	if err != nil {
		return fmt.Errorf("building the sample stream: %w", err)
	}
	var chaos *serve.Chaos
	if !o.plan.Empty() || o.plan.Seed != 0 {
		chaos, err = serve.NewChaos(o.plan)
		if err != nil {
			return fmt.Errorf("compiling the chaos plan: %w", err)
		}
		chaos.Unit = o.delayUnit
	}
	store := &serve.Store{}
	metrics := &serve.Metrics{}
	trainer, err := serve.NewTrainer(serve.TrainerConfig{
		Store:          store,
		Metrics:        metrics,
		Chaos:          chaos,
		Source:         src,
		K:              o.k,
		BatchSamples:   o.batch,
		MiniBatch:      o.miniBatch,
		RoundIters:     o.roundIters,
		Interval:       o.interval,
		Seed:           o.seed,
		Shards:         o.shards,
		Nodes:          o.nodes,
		RestartBackoff: o.backoff,
		StaleAfter:     o.staleAfter,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "swkmeansd: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(serve.ServerConfig{
		Store:           store,
		Metrics:         metrics,
		Trainer:         trainer,
		Chaos:           chaos,
		QueueDepth:      o.queue,
		DefaultDeadline: o.deadline,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", o.addr, err)
	}
	resolved := ln.Addr().String()
	if o.addrFile != "" {
		// The address file is how scripts (make servecheck) find a
		// :0-allocated port; write-then-rename so readers never see a
		// partial file.
		tmp := o.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(resolved+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
		if err := os.Rename(tmp, o.addrFile); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	var mw *serve.MetricsWriter
	if o.metricsOut != "" {
		f, err := os.OpenFile(o.metricsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -metrics-out: %w", err)
		}
		defer f.Close()
		mw = serve.NewMetricsWriter(metrics, store, trainer, f, o.metricsInt)
	}

	trainer.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Printf("swkmeansd: serving on %s (k=%d d=%d shards=%d queue=%d deadline=%v chaos=%v)\n",
		resolved, o.k, o.d, o.shards, o.queue, o.deadline, chaos != nil)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-stop:
		fmt.Printf("swkmeansd: %v: draining (budget %v)\n", sig, o.drainWait)
	case err := <-serveErr:
		trainer.Stop()
		return fmt.Errorf("http server: %w", err)
	}

	// Graceful drain: stop admitting (readyz flips 503), let in-flight
	// requests finish within the budget, then stop the trainer and
	// flush the metrics log.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), o.drainWait)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(ctx)
	trainer.Stop()
	if mw != nil {
		if err := mw.Stop(); err != nil {
			fmt.Fprintln(os.Stderr, "swkmeansd:", err)
		}
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return fmt.Errorf("draining: %w", shutdownErr)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http server: %w", err)
	}
	fmt.Println("swkmeansd: drained cleanly")
	return nil
}
