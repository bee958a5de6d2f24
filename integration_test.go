package repro

// End-to-end integration: the workflows a downstream user would run,
// chained through the public API and the internal substrates together.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/sw26010"
)

// TestTrainSaveLoadInferWorkflow: train on the simulated machine, save
// the model, reload it, classify a fresh stream with the same
// generator, and verify quality end to end.
func TestTrainSaveLoadInferWorkflow(t *testing.T) {
	spec, err := NewMachine(2)
	if err != nil {
		t.Fatal(err)
	}
	train, err := GaussianMixture("flow", 1200, 12, 6, 0.2, 2.0, 21)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Spec: spec, Level: LevelAuto, K: 6, MaxIters: 30,
		Init: InitKMeansPlusPlus, Seed: 21, TrackObjective: true,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("training did not converge")
	}
	if len(res.Objectives) != res.Iters {
		t.Fatalf("objective trace incomplete: %d/%d", len(res.Objectives), res.Iters)
	}

	var model bytes.Buffer
	if err := core.SaveCentroids(&model, res.Centroids, res.K, res.D); err != nil {
		t.Fatal(err)
	}
	cents, k, d, err := core.LoadCentroids(&model)
	if err != nil {
		t.Fatal(err)
	}

	// Classify a disjoint "test split": same mixture, different
	// indexes via a slice view.
	full, err := GaussianMixture("flow-test", 400, 12, 6, 0.2, 2.0, 21)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([]int, full.N())
	buf := make([]float64, d)
	for i := 0; i < full.N(); i++ {
		full.Sample(i, buf)
		best, bestD := -1, math.Inf(1)
		for j := 0; j < k; j++ {
			cj := cents[j*d : (j+1)*d]
			acc := 0.0
			for u := 0; u < d; u++ {
				diff := buf[u] - cj[u]
				acc += diff * diff
			}
			if acc < bestD {
				best, bestD = j, acc
			}
		}
		assign[i] = best
	}
	truth := make([]int, full.N())
	for i := range truth {
		truth[i] = full.TrueLabel(i)
	}
	ari, err := ARI(assign, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("inference ARI = %g", ari)
	}
}

// TestAllExecutionPathsAgree: the coarse engines, the fine-grained
// CPE kernels, sequential Lloyd and the accelerated baselines all
// produce the same clustering on the same problem and init.
func TestAllExecutionPathsAgree(t *testing.T) {
	g, err := dataset.NewGaussianMixture("agree", 192, 32, 4, 0.15, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.MustSpec(1)
	init, err := core.InitialCentroids(g, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 12
	ref, err := core.LloydFrom(g, init, iters, 0)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, assign []int) {
		t.Helper()
		for i := range ref.Assign {
			if assign[i] != ref.Assign[i] {
				t.Fatalf("%s diverges from Lloyd at sample %d", name, i)
			}
		}
	}
	for _, lv := range []Level{Level1, Level2, Level3} {
		res, err := Run(Config{Spec: spec, Level: lv, K: 4, MaxIters: iters, Initial: init}, g)
		if err != nil {
			t.Fatal(err)
		}
		check(lv.String(), res.Assign)
	}
	f1, err := sw26010.RunLevel1CG(spec, g, init, iters, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("fine1", f1.Assign)
	f2, err := sw26010.RunLevel2CG(spec, g, init, 8, iters, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("fine2", f2.Assign)
	f3, err := sw26010.RunLevel3Group(spec, g, init, 2, 32, iters, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("fine3", f3.Assign)
	h, err := accel.Hamerly(g, init, iters, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("hamerly", h.Assign)
	e, err := accel.Elkan(g, init, iters, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("elkan", e.Assign)
}

// TestAllExecutionPathsAgreeOnNonFiniteInput: on overflowing, ±Inf
// and NaN input every engine returns sequential Lloyd's iteration: the
// same in-range assignments, and centroids with NaN and ±Inf in the
// same places. The Level-2 and Level-3 engines cut the k=8 centroids
// into four slices of two rows, so a NaN in row 2 or 4 opens a slice
// and a NaN in row 5 sits inside one.
func TestAllExecutionPathsAgreeOnNonFiniteInput(t *testing.T) {
	const n, d, k, mPrime = 32, 4, 8, 4
	g, err := dataset.NewGaussianMixture("nonfinite", n, d, 4, 0.15, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := dataset.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	cleanInit, err := core.InitialCentroids(g, k, 5)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	cases := []struct {
		name string
		edit func(x *dataset.Matrix, init []float64)
	}{
		{"every distance overflows", func(x *dataset.Matrix, init []float64) {
			for i := 0; i < n; i++ {
				row := x.Row(i)
				for u := range row {
					row[u] = 5e200 * (1 + row[u]/64)
				}
			}
			for u := range init {
				init[u] = -5e200 * (1 + init[u]/64)
			}
		}},
		{"NaN sample", func(x *dataset.Matrix, init []float64) { x.Row(9)[2] = nan }},
		{"NaN in centroid 0", func(x *dataset.Matrix, init []float64) { init[1] = nan }},
		{"NaN opening slice 1", func(x *dataset.Matrix, init []float64) { init[2*d] = nan }},
		{"NaN opening slice 2", func(x *dataset.Matrix, init []float64) { init[4*d+3] = nan }},
		{"NaN inside slice 2", func(x *dataset.Matrix, init []float64) { init[5*d+1] = nan }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x, err := dataset.Materialize(clean)
			if err != nil {
				t.Fatal(err)
			}
			init := append([]float64(nil), cleanInit...)
			c.edit(x, init)
			ref, err := core.LloydFrom(x, init, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, assign []int, cents []float64) {
				t.Helper()
				for i, want := range ref.Assign {
					if assign[i] != want {
						t.Errorf("%s: sample %d assigned %d, Lloyd %d", name, i, assign[i], want)
					}
				}
				for i, want := range ref.Centroids {
					got := cents[i]
					if math.IsNaN(got) != math.IsNaN(want) || math.IsInf(got, 1) != math.IsInf(want, 1) ||
						math.IsInf(got, -1) != math.IsInf(want, -1) ||
						math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Errorf("%s: centroid element %d = %g, Lloyd %g", name, i, got, want)
					}
				}
			}
			for _, sched := range []bool{false, true} {
				for _, lv := range []Level{Level1, Level2, Level3} {
					res, err := Run(Config{
						Spec: machine.MustSpec(2), Level: lv, K: k, MPrimeGroup: mPrime,
						MaxIters: 1, Initial: init, Sched: sched,
					}, x)
					if err != nil {
						t.Fatalf("%v sched=%v: %v", lv, sched, err)
					}
					check(fmt.Sprintf("%v sched=%v", lv, sched), res.Assign, res.Centroids)
				}
			}
			spec := machine.MustSpec(1)
			f1, err := sw26010.RunLevel1CG(spec, x, init, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			check("fine1", f1.Assign, f1.Centroids)
			f2, err := sw26010.RunLevel2CG(spec, x, init, 4, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			check("fine2", f2.Assign, f2.Centroids)
			f3, err := sw26010.RunLevel3Group(spec, x, init, mPrime, 8, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			check("fine3", f3.Assign, f3.Centroids)
		})
	}
}

// TestPreprocessedPipeline: a mixture feeding the engine, with
// internal quality indexes on the result.
func TestPreprocessedPipeline(t *testing.T) {
	raw, err := dataset.NewGaussianMixture("prep", 600, 8, 4, 0.2, 2.0, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Spec: machine.MustSpec(1), Level: Level3, K: 4, MaxIters: 25,
		Init: InitKMeansPlusPlus, Seed: 4,
	}, raw)
	if err != nil {
		t.Fatal(err)
	}
	db, err := quality.DaviesBouldin(raw, res.Centroids, res.D, res.Assign)
	if err != nil {
		t.Fatal(err)
	}
	sil, err := quality.Silhouette(raw, res.Assign, 100)
	if err != nil {
		t.Fatal(err)
	}
	if db > 1.0 {
		t.Errorf("Davies-Bouldin = %g on separable data", db)
	}
	if sil < 0.6 {
		t.Errorf("silhouette = %g on separable data", sil)
	}
}

// TestStreamingThenWarmStart: streaming k-means provides the initial
// centroids for an exact machine run — the practical two-phase recipe
// for data that does not fit memory.
func TestStreamingThenWarmStart(t *testing.T) {
	g, err := dataset.NewGaussianMixture("warm", 1500, 10, 5, 0.15, 2.0, 31)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := stream.KMeans(g, 5, 200, 10, 31)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Spec: machine.MustSpec(1), Level: Level1, K: 5, MaxIters: 20,
		Initial: coarse.Centroids, Tolerance: 1e-9,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("warm-started run did not converge")
	}
	// Streaming seeds are already near the optimum: very few exact
	// iterations should remain.
	if res.Iters > 5 {
		t.Errorf("warm start needed %d iterations", res.Iters)
	}
	truth := make([]int, g.N())
	for i := range truth {
		truth[i] = g.TrueLabel(i)
	}
	ari, err := ARI(res.Assign, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("two-phase ARI = %g", ari)
	}
}
