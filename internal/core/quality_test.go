package core_test

// The tests that score a clustering with internal/quality live in the
// external test package: quality computes its distances with
// core.SqDist, so package core's own tests cannot import it.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/quality"
)

// mixture is the separable Gaussian mixture of package core's tests.
func mixture(t *testing.T, n, d, comps int) *dataset.GaussianMixture {
	t.Helper()
	g, err := dataset.NewGaussianMixture("test", n, d, comps, 0.15, 2.0, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunRecoversMixture(t *testing.T) {
	g := mixture(t, 600, 12, 6)
	for _, level := range []core.Level{core.Level1, core.Level2, core.Level3} {
		cfg := core.Config{Spec: machine.MustSpec(2), Level: level, K: 6, MaxIters: 40, Seed: 6, Init: core.InitKMeansPlusPlus}
		if level == core.Level3 {
			cfg.MPrimeGroup = 2
		}
		res, err := core.Run(cfg, g)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		truth := make([]int, g.N())
		for i := range truth {
			truth[i] = g.TrueLabel(i)
		}
		ari, err := quality.ARI(res.Assign, truth)
		if err != nil {
			t.Fatal(err)
		}
		if ari < 0.999 {
			t.Errorf("%v: ARI = %g, want ~1 on separable data", level, ari)
		}
	}
}

func TestInitMethodQualityGap(t *testing.T) {
	// Across several seeds, kmeans++ must recover the mixture at least
	// as often as block init (here: always, on separable data).
	g := mixture(t, 360, 10, 6)
	truth := make([]int, g.N())
	for i := range truth {
		truth[i] = g.TrueLabel(i)
	}
	for seed := uint64(0); seed < 5; seed++ {
		cfg := core.Config{Spec: machine.MustSpec(1), Level: core.Level1, K: 6, MaxIters: 40, Seed: seed, Init: core.InitKMeansPlusPlus}
		res, err := core.Run(cfg, g)
		if err != nil {
			t.Fatal(err)
		}
		ari, err := quality.ARI(res.Assign, truth)
		if err != nil {
			t.Fatal(err)
		}
		if ari < 0.999 {
			t.Errorf("seed %d: kmeans++ ARI = %g", seed, ari)
		}
	}
}

func TestMiniBatchModeQualityAndCost(t *testing.T) {
	// One rank so the full pass is compute-heavy enough that fixed
	// collective latencies do not mask the mini-batch advantage.
	g := mixture(t, 2000, 64, 5)
	full, err := core.Run(core.Config{
		Spec: machine.MustSpec(1), Level: core.Level1, K: 5, MaxIters: 2,
		Init: core.InitKMeansPlusPlus, Seed: 3, Ranks: 1,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := core.Run(core.Config{
		Spec: machine.MustSpec(1), Level: core.Level1, K: 5, MaxIters: 30,
		Init: core.InitKMeansPlusPlus, Seed: 3, MiniBatch: 64, Tolerance: 1e-3, Ranks: 1,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	// A mini-batch iteration must be substantially cheaper in simulated
	// time. The Update step's k·d allreduce is batch-independent, so it
	// floors the saving — the assign-side work shrinks ~30x but the
	// whole iteration lands around the reduce floor.
	if mb.IterTimes[0] >= full.IterTimes[0]/2 {
		t.Errorf("mini-batch iteration %g s vs full %g s — not cheaper", mb.IterTimes[0], full.IterTimes[0])
	}
	// And the clustering still recovers the separable mixture: the
	// rotating batches cover the whole range over the iterations.
	truth := make([]int, g.N())
	for i := range truth {
		truth[i] = g.TrueLabel(i)
	}
	// Score only processed samples (assignments filled as batches
	// rotate; with 30 iters x 32 x 4 ranks they cover most of n).
	var pred, tr []int
	for i, a := range mb.Assign {
		if a >= 0 {
			pred = append(pred, a)
			tr = append(tr, truth[i])
		}
	}
	if len(pred) < g.N()/2 {
		t.Fatalf("only %d of %d samples touched", len(pred), g.N())
	}
	ari, err := quality.ARI(pred, tr)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Errorf("mini-batch ARI = %g on separable data", ari)
	}
}

// TestEnginesOnHardMixture: anisotropic noise, imbalanced masses and
// uniform outliers must not break engine/Lloyd agreement, and the
// clustering must still separate the dominant structure.
func TestEnginesOnHardMixture(t *testing.T) {
	h, err := dataset.NewHardMixture("hard", 600, 10, 4, 0.12, 2.0, 3, 0.08, 0.6, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Lloyd(h, 4, 25, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []core.Level{core.Level1, core.Level2, core.Level3} {
		res, err := core.Run(core.Config{Spec: machine.MustSpec(1), Level: level, K: 4, MaxIters: 25, Seed: 11}, h)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		for i := range ref.Assign {
			if res.Assign[i] != ref.Assign[i] {
				t.Fatalf("%v diverges from Lloyd at %d on hard data", level, i)
			}
		}
	}
	// Quality on the non-outlier samples only: the clean structure must
	// be recovered despite the noise (NMI over clean indexes).
	var cleanPred, cleanTruth []int
	for i := 0; i < h.N(); i++ {
		if lbl := h.TrueLabel(i); lbl < h.Components() {
			cleanPred = append(cleanPred, ref.Assign[i])
			cleanTruth = append(cleanTruth, lbl)
		}
	}
	nmi, err := quality.NMI(cleanPred, cleanTruth)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.6 {
		t.Errorf("NMI on clean structure = %g", nmi)
	}
}
