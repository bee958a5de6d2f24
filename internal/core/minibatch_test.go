package core

import (
	"testing"

	"repro/internal/machine"
)

func TestMiniBatchModeValidation(t *testing.T) {
	g := mixture(t, 100, 4, 2)
	if _, err := Run(Config{Spec: machine.MustSpec(1), Level: Level3, K: 2, MiniBatch: 16}, g); err == nil {
		t.Error("mini-batch at Level 3 accepted")
	}
	if _, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 2, MiniBatch: 16, SampleStride: 2}, g); err == nil {
		t.Error("mini-batch with striding accepted")
	}
	if _, err := Run(Config{Spec: machine.MustSpec(1), Level: Level1, K: 2, MiniBatch: -1}, g); err == nil {
		t.Error("negative mini-batch accepted")
	}
}

func TestMiniBatchDeterministic(t *testing.T) {
	g := mixture(t, 500, 6, 3)
	runOnce := func() *Result {
		res, err := Run(Config{
			Spec: machine.MustSpec(1), Level: Level1, K: 3, MaxIters: 10,
			Seed: 5, MiniBatch: 16,
		}, g)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("mini-batch mode not deterministic")
		}
	}
	for i := range a.IterTimes {
		if a.IterTimes[i] != b.IterTimes[i] {
			t.Fatal("mini-batch simulated time not deterministic")
		}
	}
}

func TestMiniBatchLevel2(t *testing.T) {
	g := mixture(t, 800, 8, 4)
	res, err := Run(Config{
		Spec: machine.MustSpec(1), Level: Level2, K: 4, MaxIters: 20,
		Seed: 2, MiniBatch: 64, MGroup: 4,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 20 {
		t.Errorf("iters = %d", res.Iters)
	}
	for _, it := range res.IterTimes {
		if it <= 0 {
			t.Error("non-positive iteration time")
		}
	}
}
