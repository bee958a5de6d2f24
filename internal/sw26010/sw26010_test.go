package sw26010

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
)

func mixture(t testing.TB, n, d, comps int) *dataset.GaussianMixture {
	t.Helper()
	g, err := dataset.NewGaussianMixture("sw", n, d, comps, 0.15, 2.0, 0x26010)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunLevel1CGMatchesLloyd(t *testing.T) {
	g := mixture(t, 512, 8, 4)
	spec := machine.MustSpec(1)
	init, err := core.InitialCentroids(g, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.LloydFrom(g, init, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLevel1CG(spec, g, init, 25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != ref.Iters || res.Converged != ref.Converged {
		t.Errorf("iters/converged = %d/%v, Lloyd %d/%v", res.Iters, res.Converged, ref.Iters, ref.Converged)
	}
	for i := range ref.Assign {
		if res.Assign[i] != ref.Assign[i] {
			t.Fatalf("assignment diverges at %d: %d vs %d", i, res.Assign[i], ref.Assign[i])
		}
	}
	for i := range ref.Centroids {
		diff := math.Abs(res.Centroids[i] - ref.Centroids[i])
		if diff/math.Max(1, math.Abs(ref.Centroids[i])) > 1e-9 {
			t.Fatalf("centroid element %d = %g, Lloyd %g", i, res.Centroids[i], ref.Centroids[i])
		}
	}
	if len(res.IterTimes) != res.Iters {
		t.Fatalf("IterTimes %d entries for %d iters", len(res.IterTimes), res.Iters)
	}
	for i, it := range res.IterTimes {
		if it <= 0 {
			t.Errorf("iteration %d took %g", i, it)
		}
	}
}

// TestFineGrainedAgreesWithCoarseEngine: the CPE-level reference and
// the coarse CG executor must produce the same clustering, and their
// virtual-time profiles must agree to within a small factor (they
// model the same machine through different mechanisms).
func TestFineGrainedAgreesWithCoarseEngine(t *testing.T) {
	g := mixture(t, 768, 12, 4)
	spec := machine.MustSpec(1)
	init, err := core.InitialCentroids(g, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := RunLevel1CG(spec, g, init, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := core.Run(core.Config{
		Spec: spec, Level: core.Level1, K: 6, MaxIters: 3, Seed: 5, Ranks: 1,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fine.Assign {
		if fine.Assign[i] != coarse.Assign[i] {
			t.Fatalf("engines disagree at sample %d", i)
		}
	}
	fineT := fine.IterTimes[0]
	coarseT := coarse.IterTimes[0]
	ratio := fineT / coarseT
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("virtual-time profiles diverge: fine %g s vs coarse %g s (ratio %.2f)", fineT, coarseT, ratio)
	}
}

func TestRunLevel1CGValidation(t *testing.T) {
	g := mixture(t, 64, 4, 2)
	spec := machine.MustSpec(1)
	init := make([]float64, 2*4)
	if _, err := RunLevel1CG(spec, g, init[:3], 5, 0); err == nil {
		t.Error("ragged init accepted")
	}
	if _, err := RunLevel1CG(spec, g, init, 0, 0); err == nil {
		t.Error("maxIters=0 accepted")
	}
	bad := machine.MustSpec(1)
	bad.Nodes = 0
	if _, err := RunLevel1CG(bad, g, init, 5, 0); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestRunLevel1CGEnforcesC1(t *testing.T) {
	// A shape violating C1 (d=68, k=128 needs 17,604 > 16,384 elems)
	// must be rejected, like on the real hardware.
	g := mixture(t, 256, 68, 4)
	init := make([]float64, 128*68)
	if _, err := RunLevel1CG(machine.MustSpec(1), g, init, 5, 0); err == nil {
		t.Error("C1-violating shape accepted")
	}
}

func TestFewerSamplesThanCPEs(t *testing.T) {
	g := mixture(t, 20, 4, 2) // 20 samples across 64 CPEs: most idle
	init, err := core.InitialCentroids(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLevel1CG(machine.MustSpec(1), g, init, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Assign {
		if a < 0 || a >= 2 {
			t.Errorf("sample %d unassigned: %d", i, a)
		}
	}
}

func BenchmarkRunLevel1CG(b *testing.B) {
	g := mixture(b, 1024, 8, 4)
	spec := machine.MustSpec(1)
	init, _ := core.InitialCentroids(g, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLevel1CG(spec, g, init, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}
