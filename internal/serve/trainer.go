package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/stream"
)

// ErrIngestFull marks samples shed by the bounded ingest buffer.
var ErrIngestFull = errors.New("serve: ingest buffer full")

// errChaosCrash is the trainer's chaos-scheduled death; the supervisor
// treats it like any other crash.
var errChaosCrash = errors.New("serve: chaos-scheduled trainer crash")

// TrainerConfig configures the background trainer.
type TrainerConfig struct {
	// Store receives the published snapshots. Required.
	Store *Store
	// Metrics receives the trainer counters; optional.
	Metrics *Metrics
	// Chaos injects trainer crashes and publish drops; optional.
	Chaos *Chaos
	// Source is the deterministic sample stream the trainer consumes
	// cyclically (ingested samples are spliced in front of it). Required.
	Source dataset.Source
	// K is the model size. Required.
	K int
	// BatchSamples is the number of samples ingested per training round
	// (default 256; must be >= K).
	BatchSamples int
	// MiniBatch is the per-rank mini-batch inside the epoch engine's
	// incremental rounds (default 32).
	MiniBatch int
	// RoundIters bounds the engine iterations per round (default 3).
	RoundIters int
	// Interval paces the rounds (default 50ms).
	Interval time.Duration
	// Seed drives every deterministic choice.
	Seed uint64
	// Shards is the number of centroid-range query shards per snapshot
	// (default 4).
	Shards int
	// Nodes sizes the simulated machine the mini-batch rounds run on
	// (default 1).
	Nodes int
	// RestartBackoff is the supervisor's pause before restarting a dead
	// trainer (default 200ms).
	RestartBackoff time.Duration
	// StaleAfter is the snapshot-age degradation threshold (default 2s).
	StaleAfter time.Duration
	// Logf receives supervisor events (crashes, restarts, publish
	// errors); optional.
	Logf func(format string, args ...any)
}

// withDefaults fills the documented defaults.
func (cfg TrainerConfig) withDefaults() TrainerConfig {
	if cfg.BatchSamples == 0 {
		cfg.BatchSamples = 256
	}
	if cfg.MiniBatch == 0 {
		cfg.MiniBatch = 32
	}
	if cfg.RoundIters == 0 {
		cfg.RoundIters = 3
	}
	if cfg.Interval == 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	if cfg.RestartBackoff == 0 {
		cfg.RestartBackoff = 200 * time.Millisecond
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Trainer ingests streaming samples and publishes epoch-numbered
// snapshots: the first from a hierarchical streaming clustering
// (internal/stream), every later one from a warm-started mini-batch
// round through the epoch engine (internal/core). A supervisor keeps
// it running: a death — chaos-scheduled, a panic, or a training error —
// marks the trainer dead, waits out the restart backoff and resumes
// from the last published snapshot, while the query path keeps serving
// that snapshot with its staleness reported.
type Trainer struct {
	cfg  TrainerConfig
	spec *machine.Spec

	cancel context.CancelFunc
	done   chan struct{}

	alive     atomic.Bool
	trained   atomic.Int64
	nextEpoch atomic.Uint64

	// mu guards the ingest buffer.
	mu     sync.Mutex
	ingest [][]float64

	// The fields below are owned by the supervisor goroutine alone:
	// crashesFired counts chaos crashes already taken, round numbers
	// the training rounds across restarts, cursor is the position in
	// the cyclic stream, and pend holds a trained-but-unpublished
	// model between runRound and publishRound.
	crashesFired int
	round        uint64
	cursor       int64
	pend         *pending
}

// NewTrainer validates the configuration. Start launches the loop.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: trainer needs a store")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: trainer needs a sample source")
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("serve: trainer k must be at least 1, got %d", cfg.K)
	}
	if cfg.BatchSamples < cfg.K {
		return nil, fmt.Errorf("serve: batch of %d cannot seed k=%d centroids", cfg.BatchSamples, cfg.K)
	}
	spec, err := machine.NewSpec(cfg.Nodes)
	if err != nil {
		return nil, fmt.Errorf("serve: trainer machine spec: %w", err)
	}
	t := &Trainer{cfg: cfg, spec: spec, done: make(chan struct{})}
	t.nextEpoch.Store(1)
	return t, nil
}

// Start launches the supervised training loop until Stop.
func (t *Trainer) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	go t.supervise(ctx)
}

// Stop halts the trainer and waits for the loop to exit.
func (t *Trainer) Stop() {
	if t.cancel != nil {
		t.cancel()
	}
	<-t.done
}

// Alive reports whether the training loop is currently running (false
// inside a crash/restart backoff window).
func (t *Trainer) Alive() bool { return t.alive.Load() }

// Degraded reports the degradation contract's response flag: the
// trainer is dead, no snapshot exists yet, or the live snapshot is past
// its staleness budget.
func (t *Trainer) Degraded() bool {
	if !t.alive.Load() {
		return true
	}
	snap := t.cfg.Store.Current()
	return snap == nil || snap.Staleness() > t.cfg.StaleAfter
}

// TrainedSamples returns the cumulative samples consumed.
func (t *Trainer) TrainedSamples() int64 { return t.trained.Load() }

// Ingest appends samples to the bounded ingest buffer; they are
// consumed ahead of the configured stream by the next rounds. It
// accepts a prefix and returns ErrIngestFull when the buffer sheds the
// rest — the trainer-side mirror of the query path's load shedding.
func (t *Trainer) Ingest(rows [][]float64) (int, error) {
	d := t.cfg.Source.D()
	capacity := 4 * t.cfg.BatchSamples
	accepted := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range rows {
		if len(r) != d {
			return accepted, fmt.Errorf("serve: ingest row has %d dims, stream wants %d", len(r), d)
		}
		if len(t.ingest) >= capacity {
			return accepted, fmt.Errorf("serve: shedding %d of %d samples: %w", len(rows)-accepted, len(rows), ErrIngestFull)
		}
		t.ingest = append(t.ingest, append([]float64(nil), r...))
		accepted++
	}
	if t.cfg.Metrics != nil {
		t.cfg.Metrics.Ingested.Add(uint64(accepted))
	}
	return accepted, nil
}

// supervise runs the train loop, absorbing deaths and restarting with
// backoff until the context ends.
func (t *Trainer) supervise(ctx context.Context) {
	defer close(t.done)
	for {
		t.alive.Store(true)
		err := t.runGuarded(ctx)
		t.alive.Store(false)
		if ctx.Err() != nil {
			return
		}
		if t.cfg.Metrics != nil {
			t.cfg.Metrics.TrainerCrashes.Add(1)
		}
		t.cfg.Logf("serve: trainer died: %v; restarting in %v", err, t.cfg.RestartBackoff)
		select {
		case <-ctx.Done():
			return
		case <-time.After(t.cfg.RestartBackoff):
		}
		if t.cfg.Metrics != nil {
			t.cfg.Metrics.TrainerRestarts.Add(1)
		}
	}
}

// runGuarded is run with panic absorption: a panicking round is a
// trainer death, not a daemon death.
func (t *Trainer) runGuarded(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: trainer panic: %v", r)
		}
	}()
	return t.run(ctx)
}

// run executes training rounds until the context ends or the trainer
// dies.
func (t *Trainer) run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		if t.cfg.Chaos.TrainerCrashDue(t.crashesFired) {
			t.crashesFired++
			return errChaosCrash
		}
		if err := t.runRound(); err != nil {
			return err
		}
		// The crash window also covers "trained but not yet published":
		// a crash here loses the round, exactly like a real process
		// death between compute and publish.
		if t.cfg.Chaos.TrainerCrashDue(t.crashesFired) {
			t.crashesFired++
			return errChaosCrash
		}
		t.publishRound()
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(t.cfg.Interval):
		}
	}
}

// pending holds a trained-but-unpublished model between runRound and
// publishRound; only the supervisor goroutine touches it.
type pending struct {
	cents   []float64
	d       int
	origin  string
	trained int64
}

// runRound consumes one batch and trains the next model, leaving it in
// t.pend for publishRound.
func (t *Trainer) runRound() error {
	batch, err := t.nextBatch()
	if err != nil {
		return err
	}
	d := batch.D()
	cur := t.cfg.Store.Current()
	var cents []float64
	origin := "minibatch"
	if cur == nil {
		// Bootstrap: hierarchical streaming clustering over the first
		// batch (Guha et al. via internal/stream).
		chunk := t.cfg.BatchSamples / 4
		if chunk < 2*t.cfg.K {
			chunk = 2 * t.cfg.K
		}
		if chunk > batch.N() {
			chunk = batch.N()
		}
		if chunk < t.cfg.K {
			chunk = t.cfg.K
		}
		res, err := stream.KMeans(batch, t.cfg.K, chunk, 2*t.cfg.RoundIters, t.cfg.Seed)
		if err != nil {
			return fmt.Errorf("serve: bootstrap clustering: %w", err)
		}
		cents = res.Centroids
		origin = "bootstrap"
	} else {
		if cur.D != d {
			return fmt.Errorf("serve: stream dimensionality %d does not match live model d=%d", d, cur.D)
		}
		// Incremental round: the epoch engine's distributed mini-batch
		// path, warm-started from the live snapshot (initialCentroids
		// copies the warm start, so the published model is never
		// mutated).
		res, err := core.Run(core.Config{
			Spec:      t.spec,
			Level:     core.Level1,
			K:         t.cfg.K,
			MaxIters:  t.cfg.RoundIters,
			Tolerance: 1e-12,
			Seed:      t.cfg.Seed + t.round,
			Initial:   cur.Centroids,
			MiniBatch: t.cfg.MiniBatch,
		}, batch)
		if err != nil {
			return fmt.Errorf("serve: mini-batch round %d: %w", t.round, err)
		}
		cents = res.Centroids
	}
	t.round++
	t.trained.Add(int64(batch.N()))
	t.pend = &pending{cents: cents, d: d, origin: origin, trained: t.trained.Load()}
	return nil
}

// publishRound publishes the pending model as the next epoch, unless
// chaos drops the publish (the epoch number is consumed either way, so
// drops surface as gaps, never regressions).
func (t *Trainer) publishRound() {
	p := t.pend
	if p == nil {
		return
	}
	t.pend = nil
	epoch := t.nextEpoch.Add(1) - 1
	if t.cfg.Chaos.DropPublish(epoch) {
		if t.cfg.Metrics != nil {
			t.cfg.Metrics.DroppedPublishes.Add(1)
		}
		t.cfg.Logf("serve: chaos dropped publish of epoch %d", epoch)
		return
	}
	snap, err := NewSnapshot(epoch, p.cents, t.cfg.K, p.d, t.cfg.Shards, p.trained, p.origin)
	if err != nil {
		t.cfg.Logf("serve: building snapshot for epoch %d: %v", epoch, err)
		return
	}
	if err := t.cfg.Store.Publish(snap); err != nil {
		t.cfg.Logf("serve: publishing epoch %d: %v", epoch, err)
		return
	}
	if t.cfg.Metrics != nil {
		t.cfg.Metrics.Publishes.Add(1)
	}
}

// nextBatch assembles one training batch: queued ingest samples first,
// then the cyclic deterministic stream.
func (t *Trainer) nextBatch() (*dataset.Matrix, error) {
	n, d := t.cfg.BatchSamples, t.cfg.Source.D()
	m, err := dataset.NewMatrix(n, d)
	if err != nil {
		return nil, fmt.Errorf("serve: batch matrix: %w", err)
	}
	t.mu.Lock()
	take := len(t.ingest)
	if take > n {
		take = n
	}
	queued := t.ingest[:take]
	rest := t.ingest[take:]
	filled := 0
	for _, r := range queued {
		if err := m.SetRow(filled, r); err != nil {
			t.mu.Unlock()
			return nil, fmt.Errorf("serve: ingested row: %w", err)
		}
		filled++
	}
	t.ingest = append([][]float64(nil), rest...)
	t.mu.Unlock()

	srcN := t.cfg.Source.N()
	buf := make([]float64, d)
	for ; filled < n; filled++ {
		t.cfg.Source.Sample(int(t.cursor%int64(srcN)), buf)
		t.cursor++
		if err := m.SetRow(filled, buf); err != nil {
			return nil, fmt.Errorf("serve: stream row: %w", err)
		}
	}
	return m, nil
}
