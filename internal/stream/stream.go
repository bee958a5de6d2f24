// Package stream implements the hierarchical streaming k-means of
// Guha et al. ("Clustering data streams: theory and practice"), the
// algorithm Bender et al. adapted for Trinity's two-level memory and
// therefore the direct ancestor of the paper's Level-2 baseline: the
// input is consumed in memory-sized chunks, each chunk is clustered to
// k weighted centroids, and the concatenated weighted centroids are
// clustered again (recursively if they still exceed the memory bound)
// to produce the final k centroids.
//
// The package also provides the weighted Lloyd iteration the hierarchy
// needs, usable on its own.
package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Weighted is a set of weighted points (row-major values, one weight
// per point) — the intermediate representation of the hierarchy.
type Weighted struct {
	Values  []float64
	Weights []float64
	D       int
}

// Len returns the number of weighted points.
func (w *Weighted) Len() int { return len(w.Weights) }

// Result reports a streaming clustering run.
type Result struct {
	Centroids []float64
	K, D      int
	// Chunks is how many input chunks the first layer consumed.
	Chunks int
	// Levels is the depth of the reduction hierarchy (1 = the chunk
	// layer only plus the final clustering).
	Levels int
}

// KMeans clusters src into k centroids using chunks of at most
// chunkSize samples held "in memory" at a time. maxIters bounds the
// Lloyd iterations at every layer; seed drives the deterministic
// initializations.
func KMeans(src dataset.Source, k, chunkSize, maxIters int, seed uint64) (*Result, error) {
	n, d := src.N(), src.D()
	if k < 1 || k > n {
		return nil, fmt.Errorf("stream: k must be in [1,%d], got %d", n, k)
	}
	if chunkSize < k {
		return nil, fmt.Errorf("stream: chunk size %d must be at least k=%d", chunkSize, k)
	}
	if maxIters < 1 {
		return nil, fmt.Errorf("stream: max iterations must be at least 1, got %d", maxIters)
	}
	res := &Result{K: k, D: d, Levels: 1}

	// Layer 1: cluster each chunk of raw samples to k weighted
	// centroids.
	level := &Weighted{D: d}
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		res.Chunks++
		view, err := dataset.Slice(src, lo, hi)
		if err != nil {
			return nil, err
		}
		// Guha et al. cluster each chunk to more than k intermediate
		// centroids (2k here) so the hierarchy retains enough
		// resolution for the final clustering to undo chunk-level
		// local optima; k-means++ seeds each chunk deterministically.
		kk := 2 * k
		if hi-lo < kk {
			kk = hi - lo
		}
		init, err := core.KMeansPlusPlus(view, kk, seed+uint64(lo))
		if err != nil {
			return nil, err
		}
		chunkRes, err := core.LloydFrom(view, init, maxIters, 0)
		if err != nil {
			return nil, err
		}
		// Weight each centroid by its assigned count.
		counts := make([]float64, kk)
		for _, a := range chunkRes.Assign {
			counts[a]++
		}
		for j := 0; j < kk; j++ {
			//swlint:ignore float-eq -- counts accumulates integer increments, so an unassigned centroid is exactly zero
			if counts[j] == 0 {
				continue // empty centroid carries no mass
			}
			level.Values = append(level.Values, chunkRes.Centroids[j*d:(j+1)*d]...)
			level.Weights = append(level.Weights, counts[j])
		}
	}

	// Reduce the weighted set until it fits one chunk, then cluster it
	// to the final k.
	for level.Len() > chunkSize {
		res.Levels++
		reduced := &Weighted{D: d}
		for lo := 0; lo < level.Len(); lo += chunkSize {
			hi := lo + chunkSize
			if hi > level.Len() {
				hi = level.Len()
			}
			part := &Weighted{
				Values:  level.Values[lo*d : hi*d],
				Weights: level.Weights[lo:hi],
				D:       d,
			}
			kk := 2 * k
			if hi-lo < kk {
				kk = hi - lo
			}
			cents, weights, err := WeightedKMeans(part, kk, maxIters)
			if err != nil {
				return nil, err
			}
			reduced.Values = append(reduced.Values, cents...)
			reduced.Weights = append(reduced.Weights, weights...)
		}
		if reduced.Len() >= level.Len() {
			// A tight chunk (chunkSize < 2k) can make a reduction pass
			// the identity — every part already holds at most 2k points,
			// so clustering shrinks nothing and another pass would loop
			// forever. The hierarchy is as reduced as it can get:
			// cluster the remaining weighted set directly.
			break
		}
		level = reduced
	}
	cents, _, err := WeightedKMeans(level, k, maxIters)
	if err != nil {
		return nil, err
	}
	res.Centroids = cents
	res.Levels++
	return res, nil
}

// WeightedKMeans runs Lloyd's algorithm over weighted points and
// returns k centroids with their accumulated weights. Initialization
// picks the k heaviest points deterministically (ties by index), which
// keeps the hierarchy stable across runs.
func WeightedKMeans(w *Weighted, k, maxIters int) (cents []float64, weights []float64, err error) {
	n, d := w.Len(), w.D
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("stream: weighted k must be in [1,%d], got %d", n, k)
	}
	if len(w.Values) != n*d {
		return nil, nil, fmt.Errorf("stream: weighted set has %d values for %d points of %d dims", len(w.Values), n, d)
	}
	cents = make([]float64, k*d)
	// Deterministic weighted farthest-point initialization: start at
	// the heaviest point, then repeatedly take the point maximizing
	// weight times squared distance to the chosen set. Robust against
	// the uneven masses the hierarchy produces.
	first := 0
	for i := 1; i < n; i++ {
		if w.Weights[i] > w.Weights[first] {
			first = i
		}
	}
	copy(cents[:d], w.Values[first*d:(first+1)*d])
	minDist := make([]float64, n)
	for i := 0; i < n; i++ {
		minDist[i] = core.SqDist(w.Values[i*d:(i+1)*d], cents[:d])
	}
	for j := 1; j < k; j++ {
		best, bestScore := 0, -1.0
		for i := 0; i < n; i++ {
			score := w.Weights[i] * minDist[i]
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		row := cents[j*d : (j+1)*d]
		copy(row, w.Values[best*d:(best+1)*d])
		for i := 0; i < n; i++ {
			if dd := core.SqDist(w.Values[i*d:(i+1)*d], row); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	assign := make([]int, n)
	sums := make([]float64, k*d)
	mass := make([]float64, k)
	for iter := 0; iter < maxIters; iter++ {
		for i := range sums {
			sums[i] = 0
		}
		for j := range mass {
			mass[j] = 0
		}
		for i := 0; i < n; i++ {
			x := w.Values[i*d : (i+1)*d]
			best, _ := core.Nearest(x, cents, d, assign[i])
			assign[i] = best
			wi := w.Weights[i]
			row := sums[best*d : (best+1)*d]
			for u := 0; u < d; u++ {
				row[u] += wi * x[u]
			}
			mass[best] += wi
		}
		movement := 0.0
		for j := 0; j < k; j++ {
			//swlint:ignore float-eq -- mass only grows by positive weights; exactly zero means never assigned
			if mass[j] == 0 {
				continue
			}
			inv := 1 / mass[j]
			row := cents[j*d : (j+1)*d]
			srow := sums[j*d : (j+1)*d]
			for u := 0; u < d; u++ {
				nv := srow[u] * inv
				diff := nv - row[u]
				movement += diff * diff
				row[u] = nv
			}
		}
		//swlint:ignore float-eq -- a fixed point reproduces every centroid bit-for-bit, so exact zero movement is the stop signal
		if movement == 0 {
			break
		}
	}
	return cents, mass, nil
}
