package stream

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/quality"
)

func mixture(t testing.TB, n, d, comps int) *dataset.GaussianMixture {
	t.Helper()
	g, err := dataset.NewGaussianMixture("stream", n, d, comps, 0.15, 2.0, 0x57EA)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestKMeansValidation(t *testing.T) {
	g := mixture(t, 100, 4, 2)
	if _, err := KMeans(g, 0, 50, 10, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(g, 101, 50, 10, 1); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := KMeans(g, 10, 5, 10, 1); err == nil {
		t.Error("chunk<k accepted")
	}
	if _, err := KMeans(g, 4, 50, 0, 1); err == nil {
		t.Error("maxIters=0 accepted")
	}
}

func TestKMeansRecoversMixture(t *testing.T) {
	g := mixture(t, 1200, 8, 4)
	res, err := KMeans(g, 4, 100, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || res.D != 8 {
		t.Fatalf("shape %dx%d", res.K, res.D)
	}
	if res.Chunks != 12 {
		t.Errorf("Chunks = %d, want 12", res.Chunks)
	}
	// Assign the full stream against the streaming centroids and
	// compare against ground truth.
	assign := assignAll(g, res.Centroids)
	truth := make([]int, g.N())
	for i := range truth {
		truth[i] = g.TrueLabel(i)
	}
	ari, err := quality.ARI(assign, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.99 {
		t.Errorf("streaming ARI = %g on separable data", ari)
	}
}

func assignAll(src dataset.Source, cents []float64) []int {
	d := src.D()
	k := len(cents) / d
	assign := make([]int, src.N())
	buf := make([]float64, d)
	for i := 0; i < src.N(); i++ {
		src.Sample(i, buf)
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
	return assign
}

func TestKMeansObjectiveNearBatch(t *testing.T) {
	// The streaming hierarchy is an approximation; its objective must
	// stay within a modest factor of converged batch Lloyd.
	g := mixture(t, 900, 6, 3)
	res, err := KMeans(g, 3, 150, 15, 2)
	if err != nil {
		t.Fatal(err)
	}
	assign := assignAll(g, res.Centroids)
	objStream, err := quality.Objective(g, res.Centroids, res.D, assign)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Lloyd(g, 3, 30, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	objBatch, err := quality.Objective(g, ref.Centroids, ref.D, ref.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if objStream > objBatch*1.5 {
		t.Errorf("streaming objective %g vs batch %g", objStream, objBatch)
	}
}

func TestKMeansDeepHierarchy(t *testing.T) {
	// A tiny chunk forces multiple reduction levels: n=600, chunk=20
	// produces 30 chunks x up to 3 centroids = 90 weighted points,
	// still above the chunk, so at least one extra reduction level.
	g := mixture(t, 600, 5, 3)
	res, err := KMeans(g, 3, 20, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Levels < 3 {
		t.Errorf("Levels = %d, want >= 3 for a deep hierarchy", res.Levels)
	}
	assign := assignAll(g, res.Centroids)
	truth := make([]int, g.N())
	for i := range truth {
		truth[i] = g.TrueLabel(i)
	}
	ari, err := quality.ARI(assign, truth)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Errorf("deep hierarchy ARI = %g", ari)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	g := mixture(t, 400, 4, 2)
	a, err := KMeans(g, 2, 64, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(g, 2, 64, 10, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("streaming k-means not deterministic")
		}
	}
}

func TestWeightedKMeans(t *testing.T) {
	// Two heavy points and one light outlier: with k=2 the heavy
	// points dominate the centroids.
	w := &Weighted{
		Values:  []float64{0, 0, 10, 10, 5.2, 5.0},
		Weights: []float64{100, 100, 1},
		D:       2,
	}
	cents, mass, err := WeightedKMeans(w, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 4 || len(mass) != 2 {
		t.Fatalf("result shape %d/%d", len(cents), len(mass))
	}
	if mass[0]+mass[1] != 201 {
		t.Errorf("total mass %g, want 201", mass[0]+mass[1])
	}
	// One centroid near (0,0), the other pulled only slightly from
	// (10,10) by the light outlier.
	foundOrigin := false
	for j := 0; j < 2; j++ {
		if math.Abs(cents[j*2]) < 0.5 && math.Abs(cents[j*2+1]) < 0.5 {
			foundOrigin = true
		}
	}
	if !foundOrigin {
		t.Errorf("no centroid near the heavy origin point: %v", cents)
	}
}

func TestWeightedKMeansValidation(t *testing.T) {
	w := &Weighted{Values: []float64{1, 2}, Weights: []float64{1}, D: 2}
	if _, _, err := WeightedKMeans(w, 0, 5); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := WeightedKMeans(w, 2, 5); err == nil {
		t.Error("k>n accepted")
	}
	bad := &Weighted{Values: []float64{1, 2, 3}, Weights: []float64{1}, D: 2}
	if _, _, err := WeightedKMeans(bad, 1, 5); err == nil {
		t.Error("inconsistent weighted set accepted")
	}
}

func TestKMeansFinalPartialChunk(t *testing.T) {
	// n is not a chunk multiple and the final chunk holds fewer points
	// than k: the chunk layer must clamp its intermediate 2k to the
	// chunk population instead of failing or padding.
	g := mixture(t, 130, 4, 2)
	res, err := KMeans(g, 8, 32, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 5 { // 32+32+32+32+2
		t.Errorf("Chunks = %d, want 5", res.Chunks)
	}
	if len(res.Centroids) != 8*4 {
		t.Fatalf("centroid shape %d, want %d", len(res.Centroids), 8*4)
	}
	for i, v := range res.Centroids {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("centroid value %d is %v", i, v)
		}
	}
	// A two-point final chunk (fewer points than k=8) must still
	// contribute its mass: assignments over the whole stream stay
	// total.
	assign := assignAll(g, res.Centroids)
	for i, a := range assign {
		if a < 0 || a >= 8 {
			t.Fatalf("sample %d assigned to %d", i, a)
		}
	}
}

func TestKMeansKLargerThanChunk(t *testing.T) {
	// k exceeding the chunk capacity cannot work — each chunk must be
	// able to hold k centroids "in memory" — and must be a clean error,
	// not a panic or a silent degradation.
	g := mixture(t, 500, 4, 2)
	if _, err := KMeans(g, 64, 32, 10, 1); err == nil {
		t.Fatal("k=64 with chunk=32 accepted")
	}
	// The boundary case chunk == k is legal.
	if _, err := KMeans(g, 32, 32, 5, 1); err != nil {
		t.Fatalf("k == chunk rejected: %v", err)
	}
}

func TestWeightedKMeansZeroWeightPoints(t *testing.T) {
	// Zero-weight points carry no mass: they may be assigned, but they
	// must not move centroids, be chosen as initial centroids, or
	// change the result at all relative to the same set without them.
	base := &Weighted{
		Values:  []float64{0, 0, 0.5, 0, 10, 10, 10.5, 10},
		Weights: []float64{5, 3, 4, 2},
		D:       2,
	}
	withZeros := &Weighted{
		Values:  append(append([]float64{}, base.Values...), 99, 99, -7, 3),
		Weights: append(append([]float64{}, base.Weights...), 0, 0),
		D:       2,
	}
	want, wantMass, err := WeightedKMeans(base, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	got, gotMass, err := WeightedKMeans(withZeros, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("zero-weight points moved centroid %d: %v vs %v", i/2, got, want)
		}
	}
	for j := range wantMass {
		if gotMass[j] != wantMass[j] {
			t.Fatalf("zero-weight points changed mass %d: %v vs %v", j, gotMass, wantMass)
		}
	}
}

func TestWeightedKMeansAllZeroWeights(t *testing.T) {
	// A degenerate all-zero-mass set (every chunk centroid came up
	// empty) must stay finite: no NaN centroids, zero masses.
	w := &Weighted{
		Values:  []float64{1, 2, 3, 4, 5, 6},
		Weights: []float64{0, 0, 0},
		D:       2,
	}
	cents, mass, err := WeightedKMeans(w, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cents {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("centroid value %d is %v", i, v)
		}
	}
	for j, m := range mass {
		if m != 0 {
			t.Errorf("mass %d = %g, want 0", j, m)
		}
	}
}

// TestWeightedKMeansOverflowingDistances is a point whose squared
// distance to every centroid overflows to +Inf: it goes to centroid 0,
// as in core's assignment, instead of to index -1 (which panicked).
func TestWeightedKMeansOverflowingDistances(t *testing.T) {
	w := &Weighted{
		Values:  []float64{0, 1e308, -1e308},
		Weights: []float64{1, 1, 1},
		D:       1,
	}
	cents, mass, err := WeightedKMeans(w, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 2 || len(mass) != 2 {
		t.Fatalf("got %d centroids and %d masses, want 2 and 2", len(cents), len(mass))
	}
	if total := mass[0] + mass[1]; total < 3 || total > 3 {
		t.Fatalf("assigned mass %g, want all 3 points", total)
	}
}

func BenchmarkStreamKMeans(b *testing.B) {
	g := mixture(b, 2048, 8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(g, 4, 256, 5, 1); err != nil {
			b.Fatal(err)
		}
	}
}
