package core

import (
	"fmt"

	"repro/internal/dataset"
)

// InitMethod selects how initial centroids are chosen. All methods are
// deterministic in the seed and computed identically on every rank, so
// initialization needs no startup broadcast.
type InitMethod int

const (
	// InitBlocks picks one sample from each of k equal index blocks
	// (the default; O(k·d), suitable for any n·d).
	InitBlocks InitMethod = iota
	// InitKMeansPlusPlus uses the k-means++ seeding of Arthur &
	// Vassilvitskii: each next centroid is drawn with probability
	// proportional to its squared distance from the chosen set. It
	// costs O(n·k·d) on the host and materializes one float per
	// sample, so it suits functional-scale runs where clustering
	// quality matters.
	InitKMeansPlusPlus
)

// String implements fmt.Stringer.
func (m InitMethod) String() string {
	switch m {
	case InitBlocks:
		return "blocks"
	case InitKMeansPlusPlus:
		return "kmeans++"
	default:
		return fmt.Sprintf("init(%d)", int(m))
	}
}

// KMeansPlusPlus returns k centroids chosen by the k-means++ rule with
// a deterministic seeded pseudo-random stream.
func KMeansPlusPlus(src dataset.Source, k int, seed uint64) ([]float64, error) {
	n, d := src.N(), src.D()
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: k must be in [1,%d], got %d", n, k)
	}
	cents := make([]float64, k*d)
	buf := make([]float64, d)
	minDist := make([]float64, n)

	first := int(hash2(seed, 0x9E37) % uint64(n))
	src.Sample(first, cents[:d])
	for i := 0; i < n; i++ {
		src.Sample(i, buf)
		minDist[i] = SqDist(buf, cents[:d])
	}
	for j := 1; j < k; j++ {
		total := 0.0
		for _, v := range minDist {
			total += v
		}
		var idx int
		if total <= 0 {
			// All remaining mass is zero (duplicated points): fall back
			// to a deterministic spread pick.
			idx = int(hash2(seed, uint64(j)) % uint64(n))
		} else {
			u := float64(hash2(seed, uint64(j))>>11) / (1 << 53) * total
			acc := 0.0
			idx = n - 1
			for i, v := range minDist {
				acc += v
				if acc >= u {
					idx = i
					break
				}
			}
		}
		row := cents[j*d : (j+1)*d]
		src.Sample(idx, row)
		for i := 0; i < n; i++ {
			src.Sample(i, buf)
			if dd := SqDist(buf, row); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	return cents, nil
}

// SqDist is the squared Euclidean distance between a and b, summed in
// coordinate order; b must be at least as long as a. It is the
// distance every kernel and metric in the module computes, so their
// values agree bit for bit.
func SqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		diff := a[i] - b[i]
		s += diff * diff
	}
	return s
}

// SqDistRows sets out[j] to SqDist(x, rows[j*d:(j+1)*d]) for every j,
// where d = len(x) and rows holds at least len(out) rows of d values.
// It is the Level-3 CPE kernel's partial-distance pass, over stripes
// that are often one coordinate wide. Coordinate 0 goes first, in one
// pass over all rows: SqDist's first step, +0 + diff², is diff² itself,
// bit for bit. The other coordinates are then added row by row in
// coordinate order, the sum held in a register as in SqDist. A
// coordinate-outer loop over all of x would not do: the compiler makes
// an accumulator loaded from out the second operand of its addition,
// and when both operands are NaNs the first one's payload wins, so
// out[j] could differ from SqDist in a NaN's payload.
func SqDistRows(x, rows, out []float64) {
	d := len(x)
	if d == 0 {
		clear(out)
		return
	}
	rows = rows[:len(out)*d]
	x0 := x[0]
	for j, r := 0, 0; j < len(out); j, r = j+1, r+d {
		diff := x0 - rows[r]
		out[j] = diff * diff
	}
	if d == 1 {
		return
	}
	for j, r := 0, 0; j < len(out); j, r = j+1, r+d {
		row := rows[r+1 : r+d]
		s := out[j]
		for u, xu := range x[1:] {
			diff := xu - row[u]
			s += diff * diff
		}
		out[j] = s
	}
}

// initialCentroids dispatches on the configured init method, honouring
// an explicit warm-start matrix first.
func initialCentroids(cfg Config, src dataset.Source) ([]float64, error) {
	if cfg.Initial != nil {
		if len(cfg.Initial) != cfg.K*src.D() {
			return nil, fmt.Errorf("core: warm-start matrix has %d values, want k*d = %d",
				len(cfg.Initial), cfg.K*src.D())
		}
		return append([]float64(nil), cfg.Initial...), nil
	}
	switch cfg.Init {
	case InitBlocks:
		return InitialCentroids(src, cfg.K, cfg.Seed)
	case InitKMeansPlusPlus:
		return KMeansPlusPlus(src, cfg.K, cfg.Seed)
	default:
		return nil, fmt.Errorf("core: unknown init method %d", int(cfg.Init))
	}
}
