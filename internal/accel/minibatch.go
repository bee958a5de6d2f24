package accel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
)

// MiniBatch runs mini-batch k-means (Sculley's algorithm, the family
// of nested mini-batch k-means [31]): each step draws a deterministic
// pseudo-random batch, assigns it against the current centroids and
// moves each centroid toward its batch members with a per-centroid
// learning rate 1/count. It trades exactness for per-step cost and is
// the approximate end of the baseline spectrum.
func MiniBatch(src dataset.Source, initial []float64, steps, batch int, seed uint64) (*Result, error) {
	d := src.D()
	if len(initial) == 0 || len(initial)%d != 0 {
		return nil, fmt.Errorf("accel: initial centroid matrix size %d not a positive multiple of d=%d", len(initial), d)
	}
	if steps < 1 {
		return nil, fmt.Errorf("accel: steps must be at least 1, got %d", steps)
	}
	if batch < 1 {
		return nil, fmt.Errorf("accel: batch must be at least 1, got %d", batch)
	}
	k := len(initial) / d
	n := src.N()
	res := &Result{
		Centroids: append([]float64(nil), initial...),
		K:         k,
		D:         d,
	}
	cents := res.Centroids
	counts := make([]int64, k)
	buf := make([]float64, d)
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for s := 0; s < steps; s++ {
		res.Counters.Iters++
		for b := 0; b < batch; b++ {
			i := int(next() % uint64(n))
			src.Sample(i, buf)
			best, _ := core.Nearest(buf, cents, d, -1)
			res.Counters.Distances += int64(k)
			counts[best]++
			eta := 1 / float64(counts[best])
			row := cents[best*d : (best+1)*d]
			for u := 0; u < d; u++ {
				row[u] += eta * (buf[u] - row[u])
			}
		}
	}
	// Final full assignment for reporting.
	res.Assign = make([]int, n)
	for i := 0; i < n; i++ {
		src.Sample(i, buf)
		res.Assign[i], _ = core.Nearest(buf, cents, d, -1)
		res.Counters.Distances += int64(k)
	}
	res.Converged = true
	return res, nil
}
