// Package quality evaluates clustering results: the k-means objective
// O(C) from the paper's problem definition, plus external validity
// indexes (Adjusted Rand Index, Normalized Mutual Information) against
// the ground-truth labels of the synthetic workloads. The paper itself
// measures only per-iteration time; these metrics exist to verify that
// the functional engines cluster correctly, which the real system
// takes for granted.
package quality

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Objective computes O(C) = (1/n) * sum_i dis(x_i, c_{a(i)}) where dis
// is the squared Euclidean distance of the paper's definition, for the
// given assignment. centroids is row-major k-by-d.
func Objective(src dataset.Source, centroids []float64, d int, assign []int) (float64, error) {
	n := src.N()
	if src.D() != d {
		return 0, fmt.Errorf("quality: source d=%d, centroids d=%d", src.D(), d)
	}
	if len(assign) != n {
		return 0, fmt.Errorf("quality: assignment has %d entries, want %d", len(assign), n)
	}
	if len(centroids)%d != 0 || len(centroids) == 0 {
		return 0, fmt.Errorf("quality: centroid matrix size %d not a multiple of d=%d", len(centroids), d)
	}
	k := len(centroids) / d
	buf := make([]float64, d)
	total := 0.0
	for i := 0; i < n; i++ {
		j := assign[i]
		if j < 0 || j >= k {
			return 0, fmt.Errorf("quality: sample %d assigned to centroid %d, want [0,%d)", i, j, k)
		}
		src.Sample(i, buf)
		total += core.SqDist(buf, centroids[j*d:(j+1)*d])
	}
	return total / float64(n), nil
}

// contingency builds the confusion counts between two labelings along
// with the marginals. Labels may be any small non-negative ints.
func contingency(a, b []int) (table map[[2]int]int, ca, cb map[int]int, err error) {
	if len(a) != len(b) {
		return nil, nil, nil, fmt.Errorf("quality: labelings differ in length: %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return nil, nil, nil, fmt.Errorf("quality: empty labelings")
	}
	table = make(map[[2]int]int)
	ca = make(map[int]int)
	cb = make(map[int]int)
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			return nil, nil, nil, fmt.Errorf("quality: negative label at %d", i)
		}
		table[[2]int{a[i], b[i]}]++
		ca[a[i]]++
		cb[b[i]]++
	}
	return table, ca, cb, nil
}

func choose2(n int) float64 { return float64(n) * float64(n-1) / 2 }

// ARI computes the Adjusted Rand Index between two labelings: 1 for
// identical partitions (up to label permutation), ~0 for independent
// ones.
func ARI(a, b []int) (float64, error) {
	table, ca, cb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := len(a)
	sumComb := 0.0
	for _, v := range table {
		sumComb += choose2(v)
	}
	sumA, sumB := 0.0, 0.0
	for _, v := range ca {
		sumA += choose2(v)
	}
	for _, v := range cb {
		sumB += choose2(v)
	}
	expected := sumA * sumB / choose2(n)
	maxIndex := (sumA + sumB) / 2
	//swlint:ignore float-eq -- exact equality detects the degenerate single-cluster partitions, which divide to 0/0 below
	if maxIndex == expected {
		// Degenerate partitions (e.g. single cluster on both sides)
		// agree perfectly by convention.
		return 1, nil
	}
	return (sumComb - expected) / (maxIndex - expected), nil
}

// NMI computes the Normalized Mutual Information (arithmetic-mean
// normalization) between two labelings: 1 for identical partitions,
// 0 for independent ones.
func NMI(a, b []int) (float64, error) {
	table, ca, cb, err := contingency(a, b)
	if err != nil {
		return 0, err
	}
	n := float64(len(a))
	mi := 0.0
	for key, v := range table {
		pxy := float64(v) / n
		px := float64(ca[key[0]]) / n
		py := float64(cb[key[1]]) / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	ha, hb := 0.0, 0.0
	for _, v := range ca {
		p := float64(v) / n
		ha -= p * math.Log(p)
	}
	for _, v := range cb {
		p := float64(v) / n
		hb -= p * math.Log(p)
	}
	//swlint:ignore float-eq -- entropy of a single-cluster labeling is exactly zero (sum of p*log(p) over one term p=1)
	if ha == 0 && hb == 0 {
		return 1, nil
	}
	denom := (ha + hb) / 2
	//swlint:ignore float-eq -- exact zero mean entropy only occurs in the degenerate case handled above
	if denom == 0 {
		return 0, nil
	}
	v := mi / denom
	// Clamp tiny negative values from floating-point noise.
	if v < 0 && v > -1e-12 {
		v = 0
	}
	return v, nil
}

// Accuracy returns the fraction of samples whose predicted cluster
// maps to the matching true class under the best greedy cluster-to-
// class matching. It is a coarse, intuitive companion to ARI/NMI for
// the land-cover demo.
func Accuracy(pred, truth []int) (float64, error) {
	table, _, _, err := contingency(pred, truth)
	if err != nil {
		return 0, err
	}
	// Greedy matching: repeatedly take the largest remaining cell.
	usedP := make(map[int]bool)
	usedT := make(map[int]bool)
	correct := 0
	for {
		best, bp, bt := 0, -1, -1
		for key, v := range table {
			if usedP[key[0]] || usedT[key[1]] {
				continue
			}
			if v > best || (v == best && (bp == -1 || key[0] < bp || (key[0] == bp && key[1] < bt))) {
				best, bp, bt = v, key[0], key[1]
			}
		}
		if bp < 0 {
			break
		}
		usedP[bp] = true
		usedT[bt] = true
		correct += best
	}
	return float64(correct) / float64(len(pred)), nil
}

// ObjectiveSurviving computes the mean objective over the samples that
// carry an assignment, skipping entries with assign[i] < 0 — the
// convention the resilient engine uses for shards dropped after a rank
// failure. It returns the mean, the number of surviving samples, and
// an error when none survive. On a fully-assigned result it equals
// Objective.
func ObjectiveSurviving(src dataset.Source, centroids []float64, d int, assign []int) (float64, int, error) {
	n := src.N()
	if src.D() != d {
		return 0, 0, fmt.Errorf("quality: source d=%d, centroids d=%d", src.D(), d)
	}
	if len(assign) != n {
		return 0, 0, fmt.Errorf("quality: assignment has %d entries, want %d", len(assign), n)
	}
	if len(centroids)%d != 0 || len(centroids) == 0 {
		return 0, 0, fmt.Errorf("quality: centroid matrix size %d not a multiple of d=%d", len(centroids), d)
	}
	k := len(centroids) / d
	buf := make([]float64, d)
	total := 0.0
	alive := 0
	for i := 0; i < n; i++ {
		j := assign[i]
		if j < 0 {
			continue
		}
		if j >= k {
			return 0, 0, fmt.Errorf("quality: sample %d assigned to centroid %d, want [0,%d)", i, j, k)
		}
		src.Sample(i, buf)
		total += core.SqDist(buf, centroids[j*d:(j+1)*d])
		alive++
	}
	if alive == 0 {
		return 0, 0, fmt.Errorf("quality: no surviving samples to score")
	}
	return total / float64(alive), alive, nil
}
