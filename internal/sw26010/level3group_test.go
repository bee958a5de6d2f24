package sw26010

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
)

// countingSource counts Sample calls per index.
type countingSource struct {
	dataset.Source
	calls []atomic.Int64
}

func (c *countingSource) Sample(i int, buf []float64) {
	c.calls[i].Add(1)
	c.Source.Sample(i, buf)
}

// TestRunLevel3GroupStagesEachBatchOncePerGroup: the CG group generates
// each sample of a batch once per iteration, into its shared stage, and
// every CG's 64 CPEs read their stripes of it for both the distances
// and the winners' update — n·iters Sample calls in all, each index
// iters times, whatever m'. The results still equal sequential Lloyd.
func TestRunLevel3GroupStagesEachBatchOncePerGroup(t *testing.T) {
	const n, d = 150, 40
	g := mixture(t, n, d, 4)
	for _, tc := range []struct {
		name          string
		k, mPrime, bs int
	}{
		{"one-cg", 5, 1, 32},
		{"two-cgs-short-batch", 6, 2, 7},
		// k < m': position 3 holds no centroids but reads the stage all
		// the same.
		{"empty-slice", 3, 4, 16},
		{"four-cgs-one-batch", 6, 4, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			init, err := core.InitialCentroids(g, tc.k, 2)
			if err != nil {
				t.Fatal(err)
			}
			src := &countingSource{Source: g, calls: make([]atomic.Int64, n)}
			res, err := RunLevel3Group(machine.MustSpec(1), src, init, tc.mPrime, tc.bs, 6, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesLloyd(t, tc.name, g, init, res, 6)
			want := int64(res.Iters)
			total, wrong := int64(0), -1
			for i := range src.calls {
				got := src.calls[i].Load()
				total += got
				if got != want && wrong < 0 {
					wrong = i
				}
			}
			if wrong >= 0 {
				t.Errorf("sample %d generated %d times, want iters = %d", wrong, src.calls[wrong].Load(), want)
			}
			if total != int64(n)*want {
				t.Errorf("%d Sample calls, want n·iters = %d", total, int64(n)*want)
			}
		})
	}
}

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
