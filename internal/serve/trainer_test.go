package serve

import (
	"testing"
	"time"

	"repro/internal/dataset"
)

func trainSource(t testing.TB) *dataset.GaussianMixture {
	t.Helper()
	g, err := dataset.NewGaussianMixture("serve-train", 512, 4, 3, 0.15, 2.0, 0x5E21)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// waitFor polls cond up to the budget; the serving stack is wall-clock
// by design, so its tests poll rather than tick a virtual clock.
func waitFor(t *testing.T, budget time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTrainerConfigValidation(t *testing.T) {
	src := trainSource(t)
	if _, err := NewTrainer(TrainerConfig{Source: src, K: 3}); err == nil {
		t.Error("trainer without store accepted")
	}
	if _, err := NewTrainer(TrainerConfig{Store: &Store{}, K: 3}); err == nil {
		t.Error("trainer without source accepted")
	}
	if _, err := NewTrainer(TrainerConfig{Store: &Store{}, Source: src, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewTrainer(TrainerConfig{Store: &Store{}, Source: src, K: 3, BatchSamples: 2}); err == nil {
		t.Error("batch smaller than k accepted")
	}
}

func TestTrainerPublishesMonotonicEpochs(t *testing.T) {
	var st Store
	m := &Metrics{}
	tr, err := NewTrainer(TrainerConfig{
		Store: &st, Metrics: m, Source: trainSource(t), K: 3,
		BatchSamples: 64, Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the first round synchronously (the loop is not started, so
	// the supervisor-owned fields are free): the bootstrap must come
	// from the hierarchical streaming clustering at epoch 1.
	if err := tr.runRound(); err != nil {
		t.Fatal(err)
	}
	tr.publishRound()
	first := st.Current()
	if first == nil {
		t.Fatal("bootstrap round published nothing")
	}
	if first.Origin != "bootstrap" || first.Epoch != 1 {
		t.Errorf("first snapshot origin %q epoch %d, want bootstrap epoch 1", first.Origin, first.Epoch)
	}
	if first.K != 3 || first.D != 4 {
		t.Errorf("snapshot shape %dx%d", first.K, first.D)
	}
	tr.Start()
	defer tr.Stop()
	waitFor(t, 5*time.Second, "incremental epochs", func() bool {
		s := st.Current()
		return s != nil && s.Epoch >= 4
	})
	cur := st.Current()
	if cur.Origin != "minibatch" {
		t.Errorf("incremental snapshot origin %q, want minibatch", cur.Origin)
	}
	if cur.TrainedSamples <= first.TrainedSamples {
		t.Errorf("trained samples did not grow: %d -> %d", first.TrainedSamples, cur.TrainedSamples)
	}
	if !tr.Alive() {
		t.Error("healthy trainer reports dead")
	}
	if m.Publishes.Load() < 4 {
		t.Errorf("publishes counter %d, want >= 4", m.Publishes.Load())
	}
	if st.Rejected() != 0 {
		t.Errorf("store rejected %d publishes from its only writer", st.Rejected())
	}
}

func TestTrainerChaosDropsArePureGaps(t *testing.T) {
	// msg=1 drops every publish: the trainer keeps training, epoch
	// numbers keep being consumed, the store stays empty, and nothing
	// crashes. This is the worst publish chaos and it must be a clean
	// degradation (no snapshot => 503s at the server, not errors).
	var st Store
	m := &Metrics{}
	tr, err := NewTrainer(TrainerConfig{
		Store: &st, Metrics: m, Source: trainSource(t), K: 3,
		BatchSamples: 64, Interval: time.Millisecond,
		Chaos: mkChaos(t, "seed=1; msg=1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	waitFor(t, 5*time.Second, "dropped publishes", func() bool { return m.DroppedPublishes.Load() >= 3 })
	if st.Current() != nil {
		t.Error("a publish leaked through msg=1")
	}
	if !tr.Degraded() {
		t.Error("trainer with no publishable snapshot reports healthy")
	}
}

func TestTrainerCrashAndRestart(t *testing.T) {
	// A chaos-scheduled trainer death must degrade, not fail: the last
	// snapshot keeps serving, the supervisor restarts after backoff, and
	// epochs resume past the pre-crash epoch.
	var st Store
	m := &Metrics{}
	tr, err := NewTrainer(TrainerConfig{
		Store: &st, Metrics: m, Source: trainSource(t), K: 3,
		BatchSamples: 64, Interval: time.Millisecond,
		RestartBackoff: 20 * time.Millisecond,
		Chaos:          mkChaos(t, "seed=2; crash=0@0.08"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Start()
	defer tr.Stop()
	waitFor(t, 5*time.Second, "pre-crash snapshot", func() bool { return st.Current() != nil })
	waitFor(t, 5*time.Second, "trainer crash", func() bool { return m.TrainerCrashes.Load() >= 1 })
	// The last good snapshot survives the death.
	if st.Current() == nil {
		t.Fatal("snapshot lost with the trainer")
	}
	preCrash := st.Current().Epoch
	waitFor(t, 5*time.Second, "supervisor restart", func() bool { return m.TrainerRestarts.Load() >= 1 })
	waitFor(t, 5*time.Second, "post-restart publishes", func() bool {
		s := st.Current()
		return s != nil && s.Epoch > preCrash && tr.Alive()
	})
}

func TestTrainerIngestFeedsRounds(t *testing.T) {
	var st Store
	tr, err := NewTrainer(TrainerConfig{
		Store: &st, Source: trainSource(t), K: 3,
		BatchSamples: 64, Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	n, err := tr.Ingest(rows)
	if err != nil || n != 2 {
		t.Fatalf("ingest accepted %d, err %v", n, err)
	}
	if _, err := tr.Ingest([][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong-dimensionality ingest accepted")
	}
	tr.Start()
	defer tr.Stop()
	waitFor(t, 5*time.Second, "ingested samples consumed", func() bool {
		tr.mu.Lock()
		queued := len(tr.ingest)
		tr.mu.Unlock()
		return queued == 0 && tr.trained.Load() > 0
	})
}

func TestTrainerStaleSnapshotDegrades(t *testing.T) {
	var st Store
	tr, err := NewTrainer(TrainerConfig{
		Store: &st, Source: trainSource(t), K: 3, BatchSamples: 64,
		StaleAfter: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Not started: alive=false => degraded regardless of snapshots.
	if !tr.Degraded() {
		t.Error("stopped trainer reports healthy")
	}
	// Force-alive view: a nanosecond staleness budget makes any real
	// snapshot stale immediately.
	tr.alive.Store(true)
	if err := st.Publish(mkSnap(t, 1, make([]float64, 12), 3, 4, 2)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	if !tr.Degraded() {
		t.Error("stale snapshot reports healthy")
	}
}
