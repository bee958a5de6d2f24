package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/trace"
)

// agreeWithLloyd verifies the central correctness invariant: a
// partitioned engine reproduces sequential Lloyd's assignments exactly
// and its centroids to reduction tolerance.
func agreeWithLloyd(t *testing.T, cfg Config, src dataset.Source) *Result {
	t.Helper()
	ref, err := Lloyd(src, cfg.K, cfg.withDefaults().MaxIters, cfg.Tolerance, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != ref.Iters {
		t.Errorf("%v: iters %d, Lloyd %d", cfg.Level, res.Iters, ref.Iters)
	}
	if res.Converged != ref.Converged {
		t.Errorf("%v: converged %v, Lloyd %v", cfg.Level, res.Converged, ref.Converged)
	}
	for i := range ref.Assign {
		if res.Assign[i] != ref.Assign[i] {
			t.Fatalf("%v: sample %d assigned %d, Lloyd %d", cfg.Level, i, res.Assign[i], ref.Assign[i])
		}
	}
	for i := range ref.Centroids {
		diff := math.Abs(res.Centroids[i] - ref.Centroids[i])
		scale := math.Max(1, math.Abs(ref.Centroids[i]))
		if diff/scale > 1e-9 {
			t.Fatalf("%v: centroid element %d = %g, Lloyd %g", cfg.Level, i, res.Centroids[i], ref.Centroids[i])
		}
	}
	return res
}

func TestLevel1MatchesLloyd(t *testing.T) {
	g := mixture(t, 400, 8, 4)
	cfg := Config{Spec: machine.MustSpec(2), Level: Level1, K: 4, MaxIters: 30, Seed: 5, Stats: trace.NewStats()}
	res := agreeWithLloyd(t, cfg, g)
	if len(res.IterTimes) != res.Iters {
		t.Errorf("IterTimes has %d entries for %d iters", len(res.IterTimes), res.Iters)
	}
	for i, it := range res.IterTimes {
		if it <= 0 {
			t.Errorf("iteration %d took %g simulated seconds", i, it)
		}
	}
	if res.Traffic.DMABytes == 0 || res.Traffic.NetBytes == 0 || res.Traffic.RegBytes == 0 || res.Traffic.Flops == 0 {
		t.Errorf("traffic incomplete: %+v", res.Traffic)
	}
}

func TestLevel2MatchesLloyd(t *testing.T) {
	g := mixture(t, 300, 10, 5)
	cfg := Config{Spec: machine.MustSpec(2), Level: Level2, K: 10, MGroup: 4, MaxIters: 30, Seed: 3, Stats: trace.NewStats()}
	agreeWithLloyd(t, cfg, g)
}

func TestLevel3MatchesLloyd(t *testing.T) {
	g := mixture(t, 240, 16, 4)
	cfg := Config{Spec: machine.MustSpec(2), Level: Level3, K: 8, MPrimeGroup: 4, MaxIters: 30, Seed: 11, Stats: trace.NewStats()}
	agreeWithLloyd(t, cfg, g)
}

func TestLevel3SingleGroup(t *testing.T) {
	// All ranks in one CG group: the dataflow dimension degenerates.
	g := mixture(t, 120, 12, 3)
	cfg := Config{Spec: machine.MustSpec(1), Level: Level3, K: 6, MPrimeGroup: 4, MaxIters: 20, Seed: 2}
	agreeWithLloyd(t, cfg, g)
}

func TestLevel3GroupOfOne(t *testing.T) {
	// m'group=1: every CG holds all centroids; pure dataflow partition
	// with dimension striping.
	g := mixture(t, 120, 12, 3)
	cfg := Config{Spec: machine.MustSpec(1), Level: Level3, K: 3, MPrimeGroup: 1, MaxIters: 20, Seed: 2}
	agreeWithLloyd(t, cfg, g)
}

func TestLevel3MorePositionsThanCentroids(t *testing.T) {
	// k=3 over m'group=4: one rank owns an empty centroid slice.
	g := mixture(t, 160, 8, 3)
	cfg := Config{Spec: machine.MustSpec(1), Level: Level3, K: 3, MPrimeGroup: 4, MaxIters: 20, Seed: 9}
	agreeWithLloyd(t, cfg, g)
}

func TestLevelsAgreeAcrossBatchSizes(t *testing.T) {
	g := mixture(t, 150, 6, 3)
	for _, batch := range []int{1, 7, 64, 1024} {
		cfg := Config{Spec: machine.MustSpec(1), Level: Level3, K: 6, MPrimeGroup: 2, MaxIters: 15, Seed: 4, BatchSamples: batch}
		agreeWithLloyd(t, cfg, g)
	}
}

func TestUnevenSampleDistribution(t *testing.T) {
	// n not divisible by rank count.
	g := mixture(t, 101, 5, 3)
	cfg := Config{Spec: machine.MustSpec(2), Level: Level1, K: 3, MaxIters: 15, Seed: 8}
	agreeWithLloyd(t, cfg, g)
}

func TestToleranceStopsEarly(t *testing.T) {
	g := mixture(t, 200, 6, 4)
	loose := Config{Spec: machine.MustSpec(1), Level: Level1, K: 4, MaxIters: 50, Tolerance: 10, Seed: 1}
	res, err := Run(loose, g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("loose tolerance did not converge")
	}
	tight, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 4, MaxIters: 50, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters > tight.Iters {
		t.Errorf("loose tolerance used more iterations (%d) than exact (%d)", res.Iters, tight.Iters)
	}
}

func TestMaxItersBound(t *testing.T) {
	g := mixture(t, 200, 6, 4)
	res, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 4, MaxIters: 2, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 2 || res.Converged {
		t.Errorf("Iters=%d Converged=%v, want 2/false", res.Iters, res.Converged)
	}
}

func TestSampleStrideTimingMode(t *testing.T) {
	g := mixture(t, 800, 8, 4)
	exact, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 4, MaxIters: 3, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	strided, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 4, MaxIters: 3, Seed: 1, SampleStride: 8}, g)
	if err != nil {
		t.Fatal(err)
	}
	// Simulated per-iteration time reflects the full dataflow in both.
	if math.Abs(strided.IterTimes[0]-exact.IterTimes[0])/exact.IterTimes[0] > 0.05 {
		t.Errorf("strided time %g deviates from exact %g", strided.IterTimes[0], exact.IterTimes[0])
	}
	// Unprocessed samples are marked.
	unprocessed := 0
	for _, a := range strided.Assign {
		if a == -1 {
			unprocessed++
		}
	}
	if unprocessed == 0 {
		t.Error("stride 8 left no unprocessed samples")
	}
}

func TestMeanIterTime(t *testing.T) {
	r := &Result{IterTimes: []float64{1, 2, 3}}
	if got := r.MeanIterTime(); got != 2 {
		t.Errorf("MeanIterTime = %g", got)
	}
	if got := (&Result{}).MeanIterTime(); got != 0 {
		t.Errorf("empty MeanIterTime = %g", got)
	}
}

func TestResultCentroidView(t *testing.T) {
	r := &Result{Centroids: []float64{1, 2, 3, 4}, K: 2, D: 2}
	if c := r.Centroid(1); c[0] != 3 || c[1] != 4 {
		t.Errorf("Centroid(1) = %v", c)
	}
}

func TestLevelTimingOrderingSmallD(t *testing.T) {
	// At small d and modest k, Level 1 should not be slower than
	// Level 3 (dimension striping pays off only at large d), matching
	// the flexibility argument of Section III.D.
	g := mixture(t, 512, 16, 4)
	t1, err := Run(Config{Spec: machine.MustSpec(2), Level: Level1, K: 16, MaxIters: 3, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Run(Config{Spec: machine.MustSpec(2), Level: Level3, K: 16, MPrimeGroup: 4, MaxIters: 3, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if t1.MeanIterTime() > t3.MeanIterTime() {
		t.Errorf("Level1 (%g s) slower than Level3 (%g s) at d=16", t1.MeanIterTime(), t3.MeanIterTime())
	}
}

func TestMoreRanksFasterIterations(t *testing.T) {
	// Strong scaling: the same problem on more CGs completes an
	// iteration in less simulated time (Figure 9's qualitative shape).
	// The problem must be large enough that per-rank work dominates
	// the fixed collective latencies.
	g := mixture(t, 32768, 128, 8)
	small, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 32, MaxIters: 2, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Config{Spec: machine.MustSpec(8), Level: Level1, K: 32, MaxIters: 2, Seed: 1}, g)
	if err != nil {
		t.Fatal(err)
	}
	if big.MeanIterTime() >= small.MeanIterTime() {
		t.Errorf("32 CGs (%g s) not faster than 4 CGs (%g s)", big.MeanIterTime(), small.MeanIterTime())
	}
}

func TestRunValidatesAgainstDataset(t *testing.T) {
	g := mixture(t, 10, 4, 2)
	if _, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 11}, g); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Run(Config{Spec: machine.MustSpec(1), Level: 7, K: 2}, g); err == nil {
		t.Error("bad level accepted")
	}
}
