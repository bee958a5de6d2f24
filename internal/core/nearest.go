package core

import (
	"math"

	"repro/internal/cpuid"
)

// Nearest returns the index of the centroid in cents (a k-by-d
// row-major matrix, k ≥ 1) nearest to x under squared Euclidean
// distance, together with that distance. On every input, NaN and ±Inf
// included, the answer is argminDistance's, bit for bit: ties go to
// the lowest index, a NaN first distance is kept, and a NaN anywhere
// else never wins.
//
// seed names the centroid the caller expects to win, such as the
// sample's assignment in the previous iteration. A good seed lets the
// search abandon most other centroids after a few coordinates. The
// answer never depends on it; a seed outside [0, k) means none.
func Nearest(x, cents []float64, d, seed int) (int, float64) {
	k := len(cents) / d
	best, bestDist := 0, SqDist(x[:d], cents[:d])
	if seed < 1 || seed >= k {
		return scan(x, cents, d, 1, k, best, bestDist)
	}
	// Search the block starting at the seed first, so the rest prunes
	// against the seed's distance.
	se := min(seed+4, k)
	best, bestDist = scan(x, cents, d, seed, se, best, bestDist)
	best, bestDist = scan(x, cents, d, 1, seed, best, bestDist)
	return scan(x, cents, d, se, k, best, bestDist)
}

// NearestFrom continues a nearest-centroid search over the centroid
// rows [lo, hi) of cents from the candidate (best, bestDist) found
// over the rows before lo, and returns the updated candidate; best < 0
// means there is none yet, and row lo is then taken first, whatever
// its distance. Carrying the candidate through consecutive stripes
// that cover [0, k) gives Nearest's answer over the whole matrix, so
// where the stripes are cut never changes it. A candidate whose
// distance is NaN is final, like a NaN first distance.
func NearestFrom(x, cents []float64, d, lo, hi, best int, bestDist float64) (int, float64) {
	if lo >= hi {
		return best, bestDist
	}
	if best < 0 {
		best, bestDist = lo, SqDist(x[:d], cents[lo*d:(lo+1)*d])
		lo++
	}
	return scan(x, cents, d, lo, hi, best, bestDist)
}

// NearestSlice is Nearest for a caller that holds only the centroid
// rows [kLo, kLo+len(slice)/d) of a k-row matrix, as a rank of a
// Level-2 or Level-3 partition does. It returns the slice's candidate,
// with its index in the whole matrix. Combining every slice's
// candidate with mpi.MinPairLess gives Nearest's answer over the whole
// matrix, whatever the cut and the combining order.
//
// The slice holding row 0 starts as Nearest does: its first row is
// taken whatever its distance, and a NaN there is final. Any other
// slice whose first distance is NaN starts again from the losing
// sentinel (k, +Inf), so a NaN row never wins there. An empty or
// all-NaN slice returns the sentinel.
func NearestSlice(x, slice []float64, d, kLo, k int) (int, float64) {
	kLocal := len(slice) / d
	if kLocal == 0 {
		return k, math.Inf(1)
	}
	best, bestDist := 0, SqDist(x[:d], slice[:d])
	if kLo > 0 && math.IsNaN(bestDist) {
		best, bestDist = k-kLo, math.Inf(1)
	}
	best, bestDist = scan(x, slice, d, 1, kLocal, best, bestDist)
	return kLo + best, bestDist
}

// NearestSliceDists is NearestSlice over precomputed distances: dists[j]
// is the query's distance to centroid row kLo+j, however it was summed.
func NearestSliceDists(dists []float64, kLo, k int) (int, float64) {
	if len(dists) == 0 {
		return k, math.Inf(1)
	}
	best, bestDist := 0, dists[0]
	if kLo > 0 && math.IsNaN(bestDist) {
		best, bestDist = k-kLo, math.Inf(1)
	}
	for j := 1; j < len(dists); j++ {
		if closer(dists[j], j, bestDist, best) {
			best, bestDist = j, dists[j]
		}
	}
	return kLo + best, bestDist
}

// pruneStride is how many coordinates a block accumulates between two
// abandon checks. Measured on Gaussian mixtures at d=32..256, 8 beat
// 4 (checks cost more than they save) and 16 (blocks run on after
// they could stop).
const pruneStride = 8

// useAVX2 sends scan's blocks through the AVX2 kernel. It is set once,
// from the CPU's features, and is false off amd64; tests clear it to
// run the entry points through the Go chains.
var useAVX2 = cpuid.AVX2()

// scanGo searches the centroid rows [lo, hi) of cents for one closer to
// x than the candidate (best, bestDist) and returns the closer of the
// two under argminDistance's order. Nothing beats a NaN candidate, so
// it comes back unchanged. scan runs it, or the same search with the
// block loop in AVX2; both return the same answer on every input.
//
// It takes four rows at a time and accumulates their distances in four
// independent chains, each in coordinate order, so every distance it
// completes is bit-identical to argminDistance's. Each term is (c-x)²
// rather than (x-c)²: on amd64 that saves a register copy of x per
// chain, and c-x is exactly -(x-c) under round-to-nearest, so the
// square has the same bits. Every pruneStride coordinates it abandons
// the block if all four partial sums exceed bestDist. That is exact:
// every term is a square, non-negative or NaN, so a partial sum never
// decreases and the finished distance is either larger than bestDist
// or NaN, and neither can win.
func scanGo(x, cents []float64, d, lo, hi, best int, bestDist float64) (int, float64) {
	x = x[:d]
blocks:
	//swlint:hot nearest-centroid kernel: runs once per sample per iteration
	for j := lo; j < hi; j += 4 {
		// A block past hi repeats its last row; a repeat cannot
		// change the answer.
		j1, j2, j3 := min(j+1, hi-1), min(j+2, hi-1), min(j+3, hi-1)
		c0 := cents[j*d:][:d]
		c1 := cents[j1*d:][:d]
		c2 := cents[j2*d:][:d]
		c3 := cents[j3*d:][:d]
		s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
		for u := 0; u < d; u += pruneStride {
			v := u + pruneStride
			if v > d {
				v = d
			}
			for i := u; i < v; i++ {
				xu := x[i]
				t0 := c0[i] - xu
				t1 := c1[i] - xu
				t2 := c2[i] - xu
				t3 := c3[i] - xu
				s0 += t0 * t0
				s1 += t1 * t1
				s2 += t2 * t2
				s3 += t3 * t3
			}
			if s0 > bestDist && s1 > bestDist && s2 > bestDist && s3 > bestDist {
				continue blocks
			}
		}
		if closer(s0, j, bestDist, best) {
			best, bestDist = j, s0
		}
		if closer(s1, j1, bestDist, best) {
			best, bestDist = j1, s1
		}
		if closer(s2, j2, bestDist, best) {
			best, bestDist = j2, s2
		}
		if closer(s3, j3, bestDist, best) {
			best, bestDist = j3, s3
		}
	}
	return best, bestDist
}

// closer reports whether row j at distance s beats the candidate
// (best, bestDist): a smaller distance, or an equal one at a lower
// index. A NaN distance never does.
func closer(s float64, j int, bestDist float64, best int) bool {
	return s < bestDist || (s <= bestDist && j < best)
}
