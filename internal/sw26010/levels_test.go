package sw26010

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ldm"
	"repro/internal/machine"
)

func assertMatchesLloyd(t *testing.T, name string, g *dataset.GaussianMixture, init []float64, res *Result, maxIters int) {
	t.Helper()
	ref, err := core.LloydFrom(g, init, maxIters, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != ref.Iters || res.Converged != ref.Converged {
		t.Errorf("%s: iters/converged %d/%v, Lloyd %d/%v", name, res.Iters, res.Converged, ref.Iters, ref.Converged)
	}
	for i := range ref.Assign {
		if res.Assign[i] != ref.Assign[i] {
			t.Fatalf("%s: assignment diverges at %d: %d vs %d", name, i, res.Assign[i], ref.Assign[i])
		}
	}
	for i := range ref.Centroids {
		diff := math.Abs(res.Centroids[i] - ref.Centroids[i])
		if diff/math.Max(1, math.Abs(ref.Centroids[i])) > 1e-9 {
			t.Fatalf("%s: centroid element %d = %g, Lloyd %g", name, i, res.Centroids[i], ref.Centroids[i])
		}
	}
	if len(res.IterTimes) != res.Iters {
		t.Fatalf("%s: %d iteration times for %d iters", name, len(res.IterTimes), res.Iters)
	}
	for i, it := range res.IterTimes {
		if it <= 0 {
			t.Errorf("%s: iteration %d took %g", name, i, it)
		}
	}
}

func TestRunLevel2CGMatchesLloyd(t *testing.T) {
	g := mixture(t, 384, 10, 4)
	spec := machine.MustSpec(1)
	init, err := core.InitialCentroids(g, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mgroup := range []int{1, 2, 4, 8, 16, 64} {
		res, err := RunLevel2CG(spec, g, init, mgroup, 25, 0)
		if err != nil {
			t.Fatalf("mgroup=%d: %v", mgroup, err)
		}
		assertMatchesLloyd(t, "level2cg", g, init, res, 25)
	}
}

func TestRunLevel2CGMoreGroupsThanCentroids(t *testing.T) {
	// k=3 across mgroup=8: five members own empty slices.
	g := mixture(t, 128, 6, 3)
	init, err := core.InitialCentroids(g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLevel2CG(machine.MustSpec(1), g, init, 8, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLloyd(t, "level2cg-sparse", g, init, res, 20)
}

func TestRunLevel2CGValidation(t *testing.T) {
	g := mixture(t, 64, 4, 2)
	spec := machine.MustSpec(1)
	init := make([]float64, 2*4)
	if _, err := RunLevel2CG(spec, g, init, 3, 5, 0); err == nil {
		t.Error("non-power-of-two mgroup accepted")
	}
	if _, err := RunLevel2CG(spec, g, init, 128, 5, 0); err == nil {
		t.Error("mgroup>64 accepted")
	}
	if _, err := RunLevel2CG(spec, g, init[:5], 4, 5, 0); err == nil {
		t.Error("ragged init accepted")
	}
	if _, err := RunLevel2CG(spec, g, init, 4, 0, 0); err == nil {
		t.Error("maxIters=0 accepted")
	}
}

// TestRunLevel2CGStagesEachSampleOncePerGroup: a CPE group generates
// each sample of its share once per iteration, into its shared stage,
// and all mgroup members read it for their partial argmins and the
// winner's sums — n·iters Sample calls in all, each index iters times,
// whatever mgroup. The results still equal sequential Lloyd.
func TestRunLevel2CGStagesEachSampleOncePerGroup(t *testing.T) {
	const n, d, k = 150, 16, 6
	g := mixture(t, n, d, 4)
	init, err := core.InitialCentroids(g, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, mgroup := range []int{1, 2, 8} {
		src := &countingSource{Source: g, calls: make([]atomic.Int64, n)}
		res, err := RunLevel2CG(machine.MustSpec(1), src, init, mgroup, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesLloyd(t, "level2cg-staged", g, init, res, 6)
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
			t.Errorf("mgroup %d: sample %d generated %d times, want iters = %d", mgroup, wrong, src.calls[wrong].Load(), want)
		}
		if total != int64(n)*want {
			t.Errorf("mgroup %d: %d Sample calls, want n·iters = %d", mgroup, total, int64(n)*want)
		}
	}
}

// TestRunLevel2CGChecksEveryCPEBeforeRunning: CheckLevel2 admits these
// shapes because it models DRAM tiling, but the resident slices
// overflow the LDM of some CPEs (at k=15 over pairs, only the 8-row
// members). The kernel must return CPE 0's capacity error, the same on
// every run, instead of leaving a failed CPE's partners waiting in the
// min-reduce. The deadline turns such a hang into a failure.
func TestRunLevel2CGChecksEveryCPEBeforeRunning(t *testing.T) {
	const n, d = 512, 1024
	g := mixture(t, n, d, 4)
	for _, tc := range []struct{ k, mgroup int }{{15, 2}, {16, 1}} {
		init, err := core.InitialCentroids(g, tc.k, 1)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for run := 0; run < 3; run++ {
			done := make(chan error, 1)
			go func() {
				_, err := RunLevel2CG(machine.MustSpec(1), g, init, tc.mgroup, 1, 0)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(time.Minute):
				t.Fatalf("k=%d mgroup=%d: no return after a minute", tc.k, tc.mgroup)
			}
			var ce *ldm.CapacityError
			if !errors.As(err, &ce) {
				t.Fatalf("k=%d mgroup=%d: error %v, want an *ldm.CapacityError", tc.k, tc.mgroup, err)
			}
			if !strings.HasPrefix(err.Error(), "CPE 0: ") {
				t.Errorf("k=%d mgroup=%d: error %q does not name CPE 0", tc.k, tc.mgroup, err)
			}
			if run == 0 {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("k=%d mgroup=%d: run %d error %q, run 0 %q", tc.k, tc.mgroup, run, err, first)
			}
		}
	}
}

// The TestRunLevel3CG and TestLevel3CG tests run Level 3 on one core
// group: RunLevel3Group with m'=1, where the CPE mesh stripes the
// dimensions and the MPI min-reduce has a single rank.

func TestRunLevel3CGMatchesLloyd(t *testing.T) {
	// d=96 stripes as 1.5 dims per CPE (uneven shares exercised).
	g := mixture(t, 256, 96, 4)
	spec := machine.MustSpec(1)
	init, err := core.InitialCentroids(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 7, 64} {
		res, err := RunLevel3Group(spec, g, init, 1, batch, 25, 0)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		assertMatchesLloyd(t, "level3cg", g, init, res, 25)
	}
}

func TestRunLevel3CGFewerDimsThanCPEs(t *testing.T) {
	// d=10 < 64 CPEs: most CPEs hold empty stripes and contribute
	// zero partials.
	g := mixture(t, 128, 10, 3)
	init, err := core.InitialCentroids(g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLevel3Group(machine.MustSpec(1), g, init, 1, 16, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesLloyd(t, "level3cg-narrow", g, init, res, 20)
}

func TestRunLevel3CGValidation(t *testing.T) {
	g := mixture(t, 64, 8, 2)
	spec := machine.MustSpec(1)
	init := make([]float64, 2*8)
	if _, err := RunLevel3Group(spec, g, init[:5], 1, 8, 5, 0); err == nil {
		t.Error("ragged init accepted")
	}
	if _, err := RunLevel3Group(spec, g, init, 1, 0, 5, 0); err == nil {
		t.Error("batch=0 accepted")
	}
	if _, err := RunLevel3Group(spec, g, init, 1, 8, 0, 0); err == nil {
		t.Error("maxIters=0 accepted")
	}
}

// TestLevel3CGHostsHighDimensions: the d-scaling claim C″2 at CPE
// granularity — one CG hosts a dimensionality that no single CPE could
// (3d+1 > LDM), because the stripes split it 64 ways.
func TestLevel3CGHostsHighDimensions(t *testing.T) {
	const d = 8192 // 3d+1 = 24,577 > 16,384: impossible on one CPE
	g := mixture(t, 24, d, 2)
	init, err := core.InitialCentroids(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.MustSpec(1)
	res, err := RunLevel3Group(spec, g, init, 1, 16, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters < 1 {
		t.Error("no iterations ran")
	}
	// Level 1 must reject the same shape.
	if _, err := RunLevel1CG(spec, g, init, 3, 0); err == nil {
		t.Error("Level-1 CG accepted a d that violates C2")
	}
}

func TestLevelCGsAgreeWithEachOther(t *testing.T) {
	// All three fine-grained kernels produce identical assignments on
	// the same problem.
	g := mixture(t, 192, 32, 4)
	init, err := core.InitialCentroids(g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	spec := machine.MustSpec(1)
	r1, err := RunLevel1CG(spec, g, init, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunLevel2CG(spec, g, init, 4, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := RunLevel3Group(spec, g, init, 1, 32, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assign {
		if r1.Assign[i] != r2.Assign[i] || r1.Assign[i] != r3.Assign[i] {
			t.Fatalf("kernels disagree at sample %d: %d/%d/%d", i, r1.Assign[i], r2.Assign[i], r3.Assign[i])
		}
	}
}

func BenchmarkRunLevel2CG(b *testing.B) {
	g := mixture(b, 512, 8, 4)
	spec := machine.MustSpec(1)
	init, _ := core.InitialCentroids(g, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLevel2CG(spec, g, init, 8, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunLevel3GroupOneCG(b *testing.B) {
	g := mixture(b, 512, 64, 4)
	spec := machine.MustSpec(1)
	init, _ := core.InitialCentroids(g, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunLevel3Group(spec, g, init, 1, 64, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}
