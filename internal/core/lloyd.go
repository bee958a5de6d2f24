package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Lloyd runs the sequential Lloyd algorithm (Section II.B.2) on the
// host, with the same deterministic initialization, tie-breaking,
// empty-cluster policy and convergence rule as the parallel engines.
// It is the correctness baseline every partition level is verified
// against, and the reference point for speedup claims.
func Lloyd(src dataset.Source, k, maxIters int, tolerance float64, seed uint64) (*Result, error) {
	cents, err := InitialCentroids(src, k, seed)
	if err != nil {
		return nil, err
	}
	return LloydFrom(src, cents, maxIters, tolerance)
}

// LloydFrom runs sequential Lloyd from an explicit k-by-d initial
// centroid matrix, enabling like-for-like comparisons against engines
// configured with any initialization method.
func LloydFrom(src dataset.Source, initial []float64, maxIters int, tolerance float64) (*Result, error) {
	if maxIters < 1 {
		return nil, fmt.Errorf("core: max iterations must be at least 1, got %d", maxIters)
	}
	if tolerance < 0 {
		return nil, fmt.Errorf("core: tolerance must be non-negative, got %g", tolerance)
	}
	n, d := src.N(), src.D()
	if len(initial) == 0 || len(initial)%d != 0 {
		return nil, fmt.Errorf("core: initial centroid matrix size %d not a positive multiple of d=%d", len(initial), d)
	}
	k := len(initial) / d
	cents := append([]float64(nil), initial...)
	res := &Result{
		Centroids: cents,
		K:         k,
		D:         d,
		Assign:    make([]int, n),
		Plan:      Plan{Level: 0, Ranks: 1, Groups: 1, N: n, K: k, D: d, DStripe: d, KLocalMax: k},
	}
	sums := make([]float64, k*d)
	counts := make([]int64, k)
	buf := make([]float64, d)
	for iter := 0; iter < maxIters; iter++ {
		for i := range sums {
			sums[i] = 0
		}
		for j := range counts {
			counts[j] = 0
		}
		// Assign step.
		obj := 0.0
		//swlint:hot per-sample assign loop: the O(n·k·d) core of Lloyd
		for i := 0; i < n; i++ {
			src.Sample(i, buf)
			j, dist := argminDistance(buf, cents, d)
			res.Assign[i] = j
			obj += dist
			row := sums[j*d : (j+1)*d]
			for u := 0; u < d; u++ {
				row[u] += buf[u]
			}
			counts[j]++
		}
		res.Objectives = append(res.Objectives, obj/float64(n))
		// Update step.
		movement := ApplyUpdate(cents, sums, counts, d)
		res.Iters++
		if movement <= tolerance*tolerance {
			res.Converged = true
			break
		}
	}
	return res, nil
}
