// Package accel implements the accelerated sequential k-means
// algorithms that the paper's related-work section positions itself
// against: Hamerly's single-bound algorithm [18], Elkan's full
// triangle-inequality algorithm (the family Yinyang k-means [13]
// belongs to), and mini-batch k-means [31]. They run on the host, not
// on the simulated machine — the paper's point is that such
// single-node accelerations are orthogonal to (and dwarfed by)
// hierarchical data partitioning, and Table III quantifies that by
// comparing against Ding et al.'s bound-based Yinyang on a multi-core
// CPU.
//
// Hamerly and Elkan are exact: they produce the same assignments and
// centroids as Lloyd's algorithm while skipping provably redundant
// distance computations (the test suite enforces agreement and counts
// the skipped work). Mini-batch is approximate and traded for
// convergence speed.
package accel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Counters reports the work an accelerated run performed, for
// comparison against Lloyd's n·k distance computations per iteration.
type Counters struct {
	// Distances is the number of full d-dimensional point-to-centroid
	// distance evaluations.
	Distances int64
	// Iters is the number of iterations executed.
	Iters int
}

// Result is the outcome of an accelerated run.
type Result struct {
	Centroids []float64
	Assign    []int
	K, D      int
	Converged bool
	Counters  Counters
}

// dist is the Euclidean distance the triangle-inequality bounds need.
func dist(a, b []float64) float64 {
	return math.Sqrt(core.SqDist(a, b))
}

// validate checks the shared preconditions.
func validate(src dataset.Source, initial []float64, maxIters int) (k, d int, err error) {
	d = src.D()
	if len(initial) == 0 || len(initial)%d != 0 {
		return 0, 0, fmt.Errorf("accel: initial centroid matrix size %d not a positive multiple of d=%d", len(initial), d)
	}
	if maxIters < 1 {
		return 0, 0, fmt.Errorf("accel: max iterations must be at least 1, got %d", maxIters)
	}
	k = len(initial) / d
	if k > src.N() {
		return 0, 0, fmt.Errorf("accel: k=%d exceeds n=%d", k, src.N())
	}
	return k, d, nil
}

// Hamerly runs Hamerly's exact accelerated k-means from the given
// initial centroids: one upper bound on the distance to the assigned
// centroid and one lower bound on the distance to the second-closest
// centroid per point, tightened lazily, skip the full scan whenever
// the bounds prove the assignment cannot change.
func Hamerly(src dataset.Source, initial []float64, maxIters int, tolerance float64) (*Result, error) {
	k, d, err := validate(src, initial, maxIters)
	if err != nil {
		return nil, err
	}
	n := src.N()
	res := &Result{
		Centroids: append([]float64(nil), initial...),
		Assign:    make([]int, n),
		K:         k,
		D:         d,
	}
	cents := res.Centroids
	upper := make([]float64, n)
	lower := make([]float64, n)
	sums := make([]float64, k*d)
	counts := make([]int64, k)
	buf := make([]float64, d)
	move := make([]float64, k)
	halfNearest := make([]float64, k)
	newCents := make([]float64, k*d)

	// Initial full assignment pass.
	for i := 0; i < n; i++ {
		src.Sample(i, buf)
		a, d1, d2 := closestTwo(buf, cents, d, &res.Counters)
		res.Assign[i] = a
		upper[i] = d1
		lower[i] = d2
		row := sums[a*d : (a+1)*d]
		for u := 0; u < d; u++ {
			row[u] += buf[u]
		}
		counts[a]++
	}

	for iter := 0; iter < maxIters; iter++ {
		res.Counters.Iters++
		// Update step from the incrementally maintained sums.
		movement := 0.0
		maxMove := 0.0
		for j := 0; j < k; j++ {
			row := newCents[j*d : (j+1)*d]
			old := cents[j*d : (j+1)*d]
			if counts[j] == 0 {
				copy(row, old)
				move[j] = 0
				continue
			}
			inv := 1 / float64(counts[j])
			mv := 0.0
			srow := sums[j*d : (j+1)*d]
			for u := 0; u < d; u++ {
				row[u] = srow[u] * inv
				diff := row[u] - old[u]
				mv += diff * diff
			}
			movement += mv
			move[j] = math.Sqrt(mv)
			if move[j] > maxMove {
				maxMove = move[j]
			}
		}
		copy(cents, newCents)
		if movement <= tolerance*tolerance {
			res.Converged = true
			break
		}
		// Shift bounds by the centroid motion.
		for i := 0; i < n; i++ {
			upper[i] += move[res.Assign[i]]
			lower[i] -= maxMove
		}
		// Half-distance to each centroid's nearest neighbour.
		for j := 0; j < k; j++ {
			best := math.Inf(1)
			cj := cents[j*d : (j+1)*d]
			for j2 := 0; j2 < k; j2++ {
				if j2 == j {
					continue
				}
				dd := dist(cj, cents[j2*d:(j2+1)*d])
				res.Counters.Distances++
				if dd < best {
					best = dd
				}
			}
			halfNearest[j] = best / 2
		}
		// Assign step with bound pruning.
		for i := 0; i < n; i++ {
			a := res.Assign[i]
			m := math.Max(halfNearest[a], lower[i])
			if upper[i] <= m {
				continue // assignment provably unchanged
			}
			src.Sample(i, buf)
			upper[i] = dist(buf, cents[a*d:(a+1)*d])
			res.Counters.Distances++
			if upper[i] <= m {
				continue
			}
			na, d1, d2 := closestTwo(buf, cents, d, &res.Counters)
			upper[i] = d1
			lower[i] = d2
			if na != a {
				moveSample(sums, counts, buf, a, na, d)
				res.Assign[i] = na
			}
		}
	}
	return res, nil
}

// Elkan runs Elkan's exact accelerated k-means: k lower bounds per
// point plus pairwise centroid distances prune candidate centroids.
func Elkan(src dataset.Source, initial []float64, maxIters int, tolerance float64) (*Result, error) {
	k, d, err := validate(src, initial, maxIters)
	if err != nil {
		return nil, err
	}
	n := src.N()
	res := &Result{
		Centroids: append([]float64(nil), initial...),
		Assign:    make([]int, n),
		K:         k,
		D:         d,
	}
	cents := res.Centroids
	upper := make([]float64, n)
	lower := make([]float64, n*k)
	sums := make([]float64, k*d)
	counts := make([]int64, k)
	buf := make([]float64, d)
	move := make([]float64, k)
	cc := make([]float64, k*k) // pairwise centroid distances
	halfNearest := make([]float64, k)
	newCents := make([]float64, k*d)

	for i := 0; i < n; i++ {
		src.Sample(i, buf)
		best, bestD := 0, math.Inf(1)
		for j := 0; j < k; j++ {
			dd := dist(buf, cents[j*d:(j+1)*d])
			res.Counters.Distances++
			lower[i*k+j] = dd
			if dd < bestD {
				best, bestD = j, dd
			}
		}
		res.Assign[i] = best
		upper[i] = bestD
		row := sums[best*d : (best+1)*d]
		for u := 0; u < d; u++ {
			row[u] += buf[u]
		}
		counts[best]++
	}

	for iter := 0; iter < maxIters; iter++ {
		res.Counters.Iters++
		movement := 0.0
		for j := 0; j < k; j++ {
			row := newCents[j*d : (j+1)*d]
			old := cents[j*d : (j+1)*d]
			if counts[j] == 0 {
				copy(row, old)
				move[j] = 0
				continue
			}
			inv := 1 / float64(counts[j])
			mv := 0.0
			srow := sums[j*d : (j+1)*d]
			for u := 0; u < d; u++ {
				row[u] = srow[u] * inv
				diff := row[u] - old[u]
				mv += diff * diff
			}
			movement += mv
			move[j] = math.Sqrt(mv)
		}
		copy(cents, newCents)
		if movement <= tolerance*tolerance {
			res.Converged = true
			break
		}
		for i := 0; i < n; i++ {
			upper[i] += move[res.Assign[i]]
			for j := 0; j < k; j++ {
				lower[i*k+j] -= move[j]
				if lower[i*k+j] < 0 {
					lower[i*k+j] = 0
				}
			}
		}
		for j := 0; j < k; j++ {
			cj := cents[j*d : (j+1)*d]
			best := math.Inf(1)
			for j2 := 0; j2 < k; j2++ {
				if j2 == j {
					cc[j*k+j2] = 0
					continue
				}
				dd := dist(cj, cents[j2*d:(j2+1)*d])
				res.Counters.Distances++
				cc[j*k+j2] = dd
				if dd < best {
					best = dd
				}
			}
			halfNearest[j] = best / 2
		}
		for i := 0; i < n; i++ {
			a := res.Assign[i]
			if upper[i] <= halfNearest[a] {
				continue
			}
			tight := false
			for j := 0; j < k; j++ {
				if j == a {
					continue
				}
				if upper[i] <= lower[i*k+j] || upper[i] <= cc[a*k+j]/2 {
					continue
				}
				if !tight {
					src.Sample(i, buf)
					upper[i] = dist(buf, cents[a*d:(a+1)*d])
					res.Counters.Distances++
					lower[i*k+a] = upper[i]
					tight = true
					if upper[i] <= lower[i*k+j] || upper[i] <= cc[a*k+j]/2 {
						continue
					}
				}
				dd := dist(buf, cents[j*d:(j+1)*d])
				res.Counters.Distances++
				lower[i*k+j] = dd
				//swlint:ignore float-eq -- exact distance tie breaks to the lowest index for run determinism
				if dd < upper[i] || (dd == upper[i] && j < a) {
					moveSample(sums, counts, buf, a, j, d)
					a = j
					res.Assign[i] = j
					upper[i] = dd
				}
			}
		}
	}
	return res, nil
}

// closestTwo returns the nearest centroid (lowest index on ties, like
// the Lloyd baseline), its distance and the second-nearest distance.
func closestTwo(x, cents []float64, d int, c *Counters) (int, float64, float64) {
	k := len(cents) / d
	best, d1, d2 := -1, math.Inf(1), math.Inf(1)
	for j := 0; j < k; j++ {
		dd := dist(x, cents[j*d:(j+1)*d])
		c.Distances++
		if dd < d1 {
			best, d2, d1 = j, d1, dd
		} else if dd < d2 {
			d2 = dd
		}
	}
	return best, d1, d2
}

// moveSample transfers x from cluster a to cluster b in the
// incremental sums.
func moveSample(sums []float64, counts []int64, x []float64, a, b, d int) {
	ra := sums[a*d : (a+1)*d]
	rb := sums[b*d : (b+1)*d]
	for u := 0; u < d; u++ {
		ra[u] -= x[u]
		rb[u] += x[u]
	}
	counts[a]--
	counts[b]++
}
