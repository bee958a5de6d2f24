package quality

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
)

// DaviesBouldin computes the Davies-Bouldin index of a clustering:
// the mean over clusters of the worst ratio (s_i + s_j) / d(c_i, c_j),
// where s_i is the mean distance of cluster members to their centroid.
// Lower is better; it needs one pass over the data plus O(k²) centroid
// distances, so it scales to streaming sources.
func DaviesBouldin(src dataset.Source, centroids []float64, d int, assign []int) (float64, error) {
	n := src.N()
	if src.D() != d {
		return 0, fmt.Errorf("quality: source d=%d, centroids d=%d", src.D(), d)
	}
	if len(assign) != n {
		return 0, fmt.Errorf("quality: assignment has %d entries, want %d", len(assign), n)
	}
	if len(centroids) == 0 || len(centroids)%d != 0 {
		return 0, fmt.Errorf("quality: centroid matrix size %d not a multiple of d=%d", len(centroids), d)
	}
	k := len(centroids) / d
	scatter := make([]float64, k)
	counts := make([]int, k)
	buf := make([]float64, d)
	for i := 0; i < n; i++ {
		j := assign[i]
		if j < 0 || j >= k {
			return 0, fmt.Errorf("quality: sample %d assigned to %d, want [0,%d)", i, j, k)
		}
		src.Sample(i, buf)
		scatter[j] += math.Sqrt(core.SqDist(buf, centroids[j*d:(j+1)*d]))
		counts[j]++
	}
	active := 0
	for j := 0; j < k; j++ {
		if counts[j] > 0 {
			scatter[j] /= float64(counts[j])
			active++
		}
	}
	if active < 2 {
		return 0, fmt.Errorf("quality: Davies-Bouldin needs at least 2 non-empty clusters, got %d", active)
	}
	total := 0.0
	for i := 0; i < k; i++ {
		if counts[i] == 0 {
			continue
		}
		worst := 0.0
		for j := 0; j < k; j++ {
			if j == i || counts[j] == 0 {
				continue
			}
			sep := math.Sqrt(core.SqDist(centroids[i*d:(i+1)*d], centroids[j*d:(j+1)*d]))
			//swlint:ignore float-eq -- exact zero separation means coincident centroids, reported as an error
			if sep == 0 {
				return 0, fmt.Errorf("quality: clusters %d and %d share a centroid", i, j)
			}
			if r := (scatter[i] + scatter[j]) / sep; r > worst {
				worst = r
			}
		}
		total += worst
	}
	return total / float64(active), nil
}

// Silhouette computes the mean silhouette coefficient over up to
// sampleN deterministically spread samples (sampleN <= 0 uses all;
// the full computation is O(n²·d), so sample for large sources).
// Values near 1 indicate tight, well-separated clusters; values below
// 0 indicate misassignment.
func Silhouette(src dataset.Source, assign []int, sampleN int) (float64, error) {
	n := src.N()
	if len(assign) != n {
		return 0, fmt.Errorf("quality: assignment has %d entries, want %d", len(assign), n)
	}
	if n < 3 {
		return 0, fmt.Errorf("quality: silhouette needs at least 3 samples")
	}
	if sampleN <= 0 || sampleN > n {
		sampleN = n
	}
	stride := n / sampleN
	if stride < 1 {
		stride = 1
	}
	d := src.D()
	k := 0
	for _, a := range assign {
		if a < 0 {
			return 0, fmt.Errorf("quality: unassigned sample in silhouette input")
		}
		if a+1 > k {
			k = a + 1
		}
	}
	xi := make([]float64, d)
	xj := make([]float64, d)
	sumDist := make([]float64, k)
	countIn := make([]int, k)
	total, counted := 0.0, 0
	for i := 0; i < n; i += stride {
		src.Sample(i, xi)
		for j := range sumDist {
			sumDist[j] = 0
			countIn[j] = 0
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			src.Sample(j, xj)
			dd := math.Sqrt(core.SqDist(xi, xj))
			sumDist[assign[j]] += dd
			countIn[assign[j]]++
		}
		own := assign[i]
		if countIn[own] == 0 {
			continue // singleton cluster: silhouette undefined, skip
		}
		a := sumDist[own] / float64(countIn[own])
		b := math.Inf(1)
		for j := 0; j < k; j++ {
			if j == own || countIn[j] == 0 {
				continue
			}
			if m := sumDist[j] / float64(countIn[j]); m < b {
				b = m
			}
		}
		if math.IsInf(b, 1) {
			continue // only one non-empty cluster
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
			counted++
		}
	}
	if counted == 0 {
		return 0, fmt.Errorf("quality: no silhouette values computable")
	}
	return total / float64(counted), nil
}
