package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// totalIterSeconds sums the per-iteration virtual times of a result.
func totalIterSeconds(r *Result) float64 {
	s := 0.0
	for _, t := range r.IterTimes {
		s += t
	}
	return s
}

// centroidsClose compares centroid matrices under the reduction
// tolerance: partitioned sums associate differently than sequential
// ones, so agreement is near-exact, not bitwise.
func centroidsClose(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("centroid matrix length %d, want %d", len(got), len(want))
	}
	for i := range got {
		scale := math.Max(1, math.Abs(want[i]))
		if math.Abs(got[i]-want[i]) > 1e-9*scale {
			t.Fatalf("centroid[%d] = %.17g, want %.17g", i, got[i], want[i])
		}
	}
}

// TestResilientMatchesLloydUnderCrash: a CG crash mid-run triggers
// checkpoint restart and re-planning over the survivors, and because
// the full dataset is redistributed (no shard lost) the final
// assignments still equal sequential Lloyd exactly, with centroids
// within the reduction tolerance.
func TestResilientMatchesLloydUnderCrash(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 400, 8, 4, 0.05, 3.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Spec: machine.MustSpec(1), K: 4, MaxIters: 12, Seed: 3}
	ref, err := Lloyd(g, base.K, base.MaxIters, 0, base.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []Level{Level1, Level2} {
		cfg := base
		cfg.Level = level
		clean, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%v clean: %v", level, err)
		}
		crashAt := 0.4 * totalIterSeconds(clean)
		cfg.Faults = fault.Plan{Crashes: []fault.Crash{{CG: 1, At: crashAt}}}
		cfg.CheckpointInterval = 2
		res, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%v faulty: %v", level, err)
		}
		if res.Recovery == nil {
			t.Fatalf("%v: no recovery report", level)
		}
		if res.Recovery.Replans < 1 {
			t.Errorf("%v: crash at t=%.9g caused no replan", level, crashAt)
		}
		if len(res.Recovery.LostRanks) != 1 || res.Recovery.LostRanks[0] != 1 {
			t.Errorf("%v: lost ranks = %v, want [1]", level, res.Recovery.LostRanks)
		}
		if res.Recovery.Checkpoints < 1 {
			t.Errorf("%v: no checkpoints taken", level)
		}
		if res.Recovery.OverheadSeconds() <= 0 {
			t.Errorf("%v: recovery overhead = %g, want positive", level, res.Recovery.OverheadSeconds())
		}
		for i := range ref.Assign {
			if res.Assign[i] != ref.Assign[i] {
				t.Fatalf("%v: assignment %d diverges from Lloyd under recovery", level, i)
			}
		}
		centroidsClose(t, res.Centroids, ref.Centroids)
	}
}

// TestResilientDeterministicTimeline: the same fault seed and config
// must reproduce the recovery bit for bit — iteration times, recovery
// report and final centroids — across runs and across drivers. Each
// plan runs 20 times per driver: a crash with checkpoint restart on 4
// ranks, and transient DMA and message faults on 16 ranks, where many
// ranks retry at once and a retry total summed in the order the ranks
// happen to retry differs from run to run.
func TestResilientDeterministicTimeline(t *testing.T) {
	crashData, err := dataset.NewGaussianMixture("g", 300, 6, 3, 0.08, 2.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	noiseData, err := dataset.NewGaussianMixture("gauss", 8192, 16, 8, 0.2, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  dataset.Source
		cfg  Config
	}{
		{"crash-4-ranks", crashData, Config{
			Spec: machine.MustSpec(1), Level: Level1, K: 3, MaxIters: 10, Seed: 5,
			Faults: fault.Plan{
				Seed:        21,
				Crashes:     []fault.Crash{{CG: 2, At: 1.2e-5}},
				MsgFailRate: 0.05,
				DMAFailRate: 0.02,
				MaxRetries:  64,
			},
			CheckpointInterval: 3,
		}},
		{"transient-16-ranks", noiseData, Config{
			Spec: machine.MustSpec(4), Level: Level1, K: 8, MaxIters: 6, Seed: 1,
			Faults: fault.Plan{Seed: 11, DMAFailRate: 0.05, MsgFailRate: 0.05, MaxRetries: 64},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first *Result
			for _, des := range []bool{false, true} {
				for i := 0; i < 20; i++ {
					cfg := tc.cfg
					cfg.Sched, cfg.Stats = des, trace.NewStats()
					res, err := Run(cfg, tc.src)
					if err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = res
						if res.Recovery.RetrySeconds <= 0 {
							t.Fatal("transient fault rates produced no retry time")
						}
						continue
					}
					if diff := timelineDiff(first, res); diff != "" {
						t.Fatalf("sched=%v run %d: %s", des, i, diff)
					}
				}
			}
		})
	}
}

// timelineDiff names the first bit that differs between two results'
// iteration times, centroids and recovery reports, or returns "".
func timelineDiff(a, b *Result) string {
	if len(a.IterTimes) != len(b.IterTimes) {
		return fmt.Sprintf("iteration counts differ: %d vs %d", len(a.IterTimes), len(b.IterTimes))
	}
	for i := range a.IterTimes {
		if math.Float64bits(a.IterTimes[i]) != math.Float64bits(b.IterTimes[i]) {
			return fmt.Sprintf("iteration %d time diverged: %.17g vs %.17g", i, a.IterTimes[i], b.IterTimes[i])
		}
	}
	for i := range a.Centroids {
		if math.Float64bits(a.Centroids[i]) != math.Float64bits(b.Centroids[i]) {
			return fmt.Sprintf("centroid %d diverged", i)
		}
	}
	// %v prints every float64 in its shortest exact form, so equal text
	// is equal bits.
	if ra, rb := fmt.Sprintf("%+v", *a.Recovery), fmt.Sprintf("%+v", *b.Recovery); ra != rb {
		return fmt.Sprintf("recovery reports diverged:\n%s\n%s", ra, rb)
	}
	return ""
}

// TestRecoveryNeedsNoStatsSink: the epoch loop keeps the recovery
// ledger, so a faulty run reports the same Recovery bit for bit with
// and without a traffic sink, and without one its Traffic is zero, as
// Result.Traffic documents. The plans are faultcheck's: the Level-1
// crash with checkpoint restart, the one that drops the lost shard
// (the only one of them to restore a checkpoint) and the Level-3 one,
// under both drivers.
func TestRecoveryNeedsNoStatsSink(t *testing.T) {
	g, err := dataset.NewGaussianMixture("gauss", 800, 8, 4, 0.2, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		level  Level
		mprime int
		drop   bool
		plan   string
	}{
		{"level1", Level1, 0, false, "seed=7; crash=3@2e-5; msg=0.01; retries=32"},
		{"level1-droplost", Level1, 0, true, "crash=1@2e-5"},
		{"level3", Level3, 4, false, "seed=5; crash=5@2e-5; msg=0.01; retries=32"},
	} {
		plan, err := fault.ParsePlan(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, des := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sched=%v", tc.name, des), func(t *testing.T) {
				cfg := Config{
					Spec: machine.MustSpec(2), Level: tc.level, K: 4, MPrimeGroup: tc.mprime,
					MaxIters: 10, Seed: 1, Faults: plan, CheckpointInterval: 2, DropLostShards: tc.drop,
					Sched: des,
				}
				bare, err := Run(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Stats = trace.NewStats()
				sunk, err := Run(cfg, g)
				if err != nil {
					t.Fatal(err)
				}
				if bare.Traffic != (trace.Snapshot{}) {
					t.Errorf("traffic without a sink = %+v, want zero", bare.Traffic)
				}
				if sunk.Traffic.NetMessages == 0 {
					t.Error("the sink recorded no traffic")
				}
				if rec := sunk.Recovery; rec.Replans < 1 || rec.Checkpoints < 1 {
					t.Fatalf("plan exercised too little recovery: %+v", *rec)
				}
				if diff := timelineDiff(bare, sunk); diff != "" {
					t.Error(diff)
				}
			})
		}
	}
}

// TestResilientTransientNoiseMatchesLloyd: pure transient noise (DMA
// and message retries, a degraded link, a straggler CG) never loses
// state, so the result must equal the fault-free one exactly — only
// slower.
func TestResilientTransientNoiseMatchesLloyd(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 300, 6, 3, 0.08, 2.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: machine.MustSpec(1), Level: Level1, K: 3, MaxIters: 10, Seed: 5}
	ref, err := Lloyd(g, cfg.K, cfg.MaxIters, 0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.Plan{
		Seed:        4,
		MsgFailRate: 0.1,
		DMAFailRate: 0.05,
		MaxRetries:  64,
		Links:       []fault.LinkDegrade{{FromCG: -1, ToCG: -1, From: 0, To: 1, Factor: 4}},
		Stragglers:  []fault.Straggler{{CG: 1, CPE: -1, Factor: 1.5}},
	}
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Assign {
		if res.Assign[i] != ref.Assign[i] {
			t.Fatalf("assignment %d diverges from Lloyd under transient noise", i)
		}
	}
	centroidsClose(t, res.Centroids, ref.Centroids)
	if res.Recovery.Replans != 0 {
		t.Errorf("transient noise caused %d replans", res.Recovery.Replans)
	}
	if totalIterSeconds(res)+res.Recovery.OverheadSeconds() <= totalIterSeconds(clean) {
		t.Errorf("noisy run (%.9g + %.9g overhead) not slower than clean run %.9g",
			totalIterSeconds(res), res.Recovery.OverheadSeconds(), totalIterSeconds(clean))
	}
}

// TestResilientDropLostShards: graceful degradation drops the dead
// rank's shard; the run completes, reports the dropped samples, and
// leaves their assignments at -1.
func TestResilientDropLostShards(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 400, 8, 4, 0.05, 3.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: machine.MustSpec(1), Level: Level1, K: 4, MaxIters: 12, Seed: 3}
	clean, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.Plan{Crashes: []fault.Crash{{CG: 1, At: 0.4 * totalIterSeconds(clean)}}}
	cfg.CheckpointInterval = 2
	cfg.DropLostShards = true
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := shareRange(g.N(), res.Plan.Ranks, 1)
	if res.Recovery.DroppedSamples != hi-lo {
		t.Errorf("dropped samples = %d, want shard size %d", res.Recovery.DroppedSamples, hi-lo)
	}
	for i := 0; i < g.N(); i++ {
		if i >= lo && i < hi {
			if res.Assign[i] != -1 {
				t.Fatalf("dropped sample %d still assigned to %d", i, res.Assign[i])
			}
		} else if res.Assign[i] < 0 || res.Assign[i] >= cfg.K {
			t.Fatalf("surviving sample %d has assignment %d", i, res.Assign[i])
		}
	}
	for _, v := range res.Centroids {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("degraded run produced a non-finite centroid")
		}
	}
}

// TestResilientAllRanksDead: losing every rank is a typed failure, not
// a hang.
func TestResilientAllRanksDead(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 100, 4, 2, 0.1, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	crashes := make([]fault.Crash, machine.CGsPerNode)
	for i := range crashes {
		crashes[i] = fault.Crash{CG: i, At: 0}
	}
	_, err = Run(Config{
		Spec: machine.MustSpec(1), Level: Level1, K: 2, MaxIters: 5, Seed: 1,
		Faults: fault.Plan{Crashes: crashes},
	}, g)
	if !errors.Is(err, mpi.ErrRankFailed) && !errors.Is(err, mpi.ErrCrashed) {
		t.Fatalf("all-ranks-dead error = %v, want a rank-failure error", err)
	}
}

// TestResilientConfigValidation: unsupported fault combinations are
// rejected up front, and Level 3 with faults — the former exclusion —
// is accepted.
func TestResilientConfigValidation(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 100, 4, 2, 0.1, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Plan{Crashes: []fault.Crash{{CG: 0, At: 1}}}
	if _, err := PlanFor(Config{
		Spec: machine.MustSpec(1), Level: Level3, K: 2, MaxIters: 5, Faults: faults,
	}, g.N(), g.D()); err != nil {
		t.Errorf("Level 3 with faults rejected: %v", err)
	}
	if _, err := Run(Config{
		Spec: machine.MustSpec(1), Level: Level1, K: 2, MaxIters: 5, Faults: faults, MiniBatch: 16,
	}, g); err == nil {
		t.Error("mini-batch with faults accepted")
	}
	bad := fault.Plan{Crashes: []fault.Crash{{CG: 0, At: 1}}, Stragglers: []fault.Straggler{{CG: 0, CPE: -1, Factor: 0.5}}}
	if _, err := Run(Config{
		Spec: machine.MustSpec(1), Level: Level1, K: 2, MaxIters: 5, Faults: bad,
	}, g); err == nil {
		t.Error("invalid fault plan accepted")
	}
}

// TestResilientLevelAutoConsidersLevel3: automatic level selection no
// longer special-cases Level 3 under a fault plan — on the headline
// shape, where only the nkd-partition is feasible, auto selection with
// faults picks it instead of failing.
func TestResilientLevelAutoConsidersLevel3(t *testing.T) {
	cfg := Config{
		Spec: machine.MustSpec(4096), K: 2000,
		Faults: fault.Plan{MsgFailRate: 0.01, MaxRetries: 16},
	}
	plan, err := ChooseLevel(cfg, 1265723, 196608)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Level != Level3 {
		t.Errorf("auto level under faults chose %v, want Level3", plan.Level)
	}
}

// TestChooseLevelReportsAllReasons: when every level is infeasible the
// error names each level's reason instead of only the last one.
func TestChooseLevelReportsAllReasons(t *testing.T) {
	cfg := Config{Spec: machine.MustSpec(1), K: 100}
	_, err := ChooseLevel(cfg, 10, 4) // k > n: every level fails
	if err == nil {
		t.Fatal("k>n accepted")
	}
	for _, lv := range []Level{Level1, Level2, Level3} {
		if !strings.Contains(err.Error(), lv.String()) {
			t.Errorf("error %q does not name %v", err, lv)
		}
	}
}

// TestResilientLevel3MatchesLloydUnderCrash: a CG crash mid-run at
// Level 3 triggers checkpoint restart and re-planning — the survivors
// re-form CG groups and every stripe is re-carved from the restored
// model — and because the full dataset is redistributed the final
// assignments still equal sequential Lloyd exactly.
func TestResilientLevel3MatchesLloydUnderCrash(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 240, 16, 4, 0.15, 2.0, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: machine.MustSpec(2), Level: Level3, K: 8, MPrimeGroup: 4, MaxIters: 12, Seed: 11}
	ref, err := Lloyd(g, cfg.K, cfg.MaxIters, 0, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := 0.4 * totalIterSeconds(clean)
	cfg.Faults = fault.Plan{Crashes: []fault.Crash{{CG: 5, At: crashAt}}}
	cfg.CheckpointInterval = 2
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("no recovery report")
	}
	if res.Recovery.Replans < 1 {
		t.Errorf("crash at t=%.9g caused no replan", crashAt)
	}
	if len(res.Recovery.LostRanks) != 1 || res.Recovery.LostRanks[0] != 5 {
		t.Errorf("lost ranks = %v, want [5]", res.Recovery.LostRanks)
	}
	if res.Recovery.Checkpoints < 1 {
		t.Errorf("no checkpoints taken")
	}
	if res.Recovery.OverheadSeconds() <= 0 {
		t.Errorf("recovery overhead = %g, want positive", res.Recovery.OverheadSeconds())
	}
	for i := range ref.Assign {
		if res.Assign[i] != ref.Assign[i] {
			t.Fatalf("assignment %d diverges from Lloyd under Level-3 recovery", i)
		}
	}
	centroidsClose(t, res.Centroids, ref.Centroids)
}

// TestResilientLevel3DeterministicTimeline: identical Level-3 fault
// plans reproduce identical recovery timelines byte for byte, exactly
// like the Level-1 guarantee.
func TestResilientLevel3DeterministicTimeline(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 240, 16, 4, 0.15, 2.0, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(Config{
			Spec: machine.MustSpec(2), Level: Level3, K: 8, MPrimeGroup: 4, MaxIters: 10, Seed: 11,
			Faults: fault.Plan{
				Seed:        33,
				Crashes:     []fault.Crash{{CG: 6, At: 2.5e-5}},
				MsgFailRate: 0.05,
				DMAFailRate: 0.02,
				MaxRetries:  64,
			},
			CheckpointInterval: 3,
			Stats:              trace.NewStats(),
		}, g)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.IterTimes) != len(b.IterTimes) {
		t.Fatalf("iteration counts differ: %d vs %d", len(a.IterTimes), len(b.IterTimes))
	}
	for i := range a.IterTimes {
		if math.Float64bits(a.IterTimes[i]) != math.Float64bits(b.IterTimes[i]) {
			t.Fatalf("iteration %d time diverged: %.17g vs %.17g", i, a.IterTimes[i], b.IterTimes[i])
		}
	}
	for i := range a.Centroids {
		if math.Float64bits(a.Centroids[i]) != math.Float64bits(b.Centroids[i]) {
			t.Fatalf("centroid %d diverged across identical runs", i)
		}
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Errorf("recovery reports diverged: %+v vs %+v", a.Recovery, b.Recovery)
	}
	if a.Recovery.Replans < 1 {
		t.Errorf("crash caused no replan")
	}
}

// TestResilientLevel3DropLostShards: graceful degradation at Level 3
// drops the whole CG group that lost a member — its static shard ends
// the run unassigned — while the intact groups keep their original
// stripes and shards.
func TestResilientLevel3DropLostShards(t *testing.T) {
	g, err := dataset.NewGaussianMixture("g", 240, 16, 4, 0.15, 2.0, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: machine.MustSpec(2), Level: Level3, K: 6, MPrimeGroup: 2, MaxIters: 12, Seed: 4}
	clean, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = fault.Plan{Crashes: []fault.Crash{{CG: 3, At: 0.4 * totalIterSeconds(clean)}}}
	cfg.CheckpointInterval = 2
	cfg.DropLostShards = true
	res, err := Run(cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 3 sits in CG group 1 (m'=2): that group's whole shard drops.
	lostGroup := 3 / res.Plan.MPrimeGroup
	lo, hi := shareRange(g.N(), res.Plan.Groups, lostGroup)
	if res.Recovery.DroppedSamples != hi-lo {
		t.Errorf("dropped samples = %d, want group shard size %d", res.Recovery.DroppedSamples, hi-lo)
	}
	for i := 0; i < g.N(); i++ {
		if i >= lo && i < hi {
			if res.Assign[i] != -1 {
				t.Fatalf("dropped sample %d still assigned to %d", i, res.Assign[i])
			}
		} else if res.Assign[i] < 0 || res.Assign[i] >= cfg.K {
			t.Fatalf("surviving sample %d has assignment %d", i, res.Assign[i])
		}
	}
	for _, v := range res.Centroids {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("degraded run produced a non-finite centroid")
		}
	}
}
