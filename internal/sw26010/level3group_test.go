package sw26010

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

func TestRunLevel3GroupMatchesLloyd(t *testing.T) {
	g := mixture(t, 200, 48, 4)
	spec := machine.MustSpec(1)
	init, err := core.InitialCentroids(g, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, mPrime := range []int{1, 2, 4} {
		res, err := RunLevel3Group(spec, g, init, mPrime, 32, 20, 0)
		if err != nil {
			t.Fatalf("m'=%d: %v", mPrime, err)
		}
		assertMatchesLloyd(t, "level3group", g, init, res, 20)
	}
}

func TestRunLevel3GroupMorePositionsThanCentroids(t *testing.T) {
	// k=3 over m'=4 CGs: one CG owns an empty slice end to end.
	g := mixture(t, 96, 16, 3)
	init, err := core.InitialCentroids(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLevel3Group(machine.MustSpec(1), g, init, 4, 16, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLloyd(t, "level3group-sparse", g, init, res, 15)
}

func TestRunLevel3GroupValidation(t *testing.T) {
	g := mixture(t, 64, 8, 2)
	spec := machine.MustSpec(1)
	init := make([]float64, 2*8)
	if _, err := RunLevel3Group(spec, g, init, 0, 8, 5, 0); err == nil {
		t.Error("m'=0 accepted")
	}
	if _, err := RunLevel3Group(spec, g, init, 99, 8, 5, 0); err == nil {
		t.Error("m' beyond CGs accepted")
	}
	if _, err := RunLevel3Group(spec, g, init, 2, 0, 5, 0); err == nil {
		t.Error("batch=0 accepted")
	}
	if _, err := RunLevel3Group(spec, g, init, 2, 8, 0, 0); err == nil {
		t.Error("maxIters=0 accepted")
	}
	if _, err := RunLevel3Group(spec, g, init[:5], 2, 8, 5, 0); err == nil {
		t.Error("ragged init accepted")
	}
}

func TestRunLevel3GroupAgreesWithCoarseEngine(t *testing.T) {
	g := mixture(t, 160, 32, 4)
	spec := machine.MustSpec(1)
	init, err := core.InitialCentroids(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := RunLevel3Group(spec, g, init, 4, 32, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := core.Run(core.Config{
		Spec: spec, Level: core.Level3, K: 4, MPrimeGroup: 4, Ranks: 4,
		MaxIters: 4, Seed: 3, Initial: init,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fine.Assign {
		if fine.Assign[i] != coarse.Assign[i] {
			t.Fatalf("engines disagree at sample %d", i)
		}
	}
	// Virtual-time profiles within an order of magnitude.
	ratio := fine.IterTimes[0] / coarse.IterTimes[0]
	if ratio < 0.05 || ratio > 20 {
		t.Errorf("fine %g s vs coarse %g s (ratio %.2f)", fine.IterTimes[0], coarse.IterTimes[0], ratio)
	}
}

func BenchmarkRunLevel3Group(b *testing.B) {
	g := mixture(b, 256, 32, 4)
	spec := machine.MustSpec(1)
	init, _ := core.InitialCentroids(g, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLevel3Group(spec, g, init, 2, 32, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}
