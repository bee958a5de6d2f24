package dataset

import (
	"fmt"
	"math"
)

// HardMixture is a deliberately difficult clustering workload for
// robustness testing: anisotropic components (per-dimension spreads
// varying by AnisotropyRatio), imbalanced masses (component c holds a
// share proportional to ImbalanceBase^c), and a configurable fraction
// of uniform background outliers labelled as component `Components()`
// (one past the true components).
type HardMixture struct {
	name          string
	n, d          int
	components    int
	separation    float64
	outlierFrac   float64
	imbalanceBase float64
	seed          uint64

	// scale[u] is the noise scale of dimension u, a geometric ramp
	// from spread to spread*anisotropyRatio, computed once.
	scale []float64
	// cut[c] is the first sample index of component c+1; outliers
	// occupy the tail range.
	cut []int
}

// NewHardMixture builds the workload. anisotropyRatio >= 1 scales the
// noise of the last dimension relative to the first (intermediate
// dimensions interpolate geometrically); outlierFrac in [0, 0.5) sets
// the uniform background share; imbalanceBase in (0, 1] shrinks each
// successive component's mass (1 = balanced).
func NewHardMixture(name string, n, d, components int, spread, separation, anisotropyRatio, outlierFrac, imbalanceBase float64, seed uint64) (*HardMixture, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("dataset: hard mixture shape must be positive, got n=%d d=%d", n, d)
	}
	if components <= 0 || components > n {
		return nil, fmt.Errorf("dataset: components must be in [1,n], got %d", components)
	}
	if spread < 0 || separation <= 0 {
		return nil, fmt.Errorf("dataset: spread must be >= 0 and separation > 0")
	}
	if anisotropyRatio < 1 {
		return nil, fmt.Errorf("dataset: anisotropy ratio must be >= 1, got %g", anisotropyRatio)
	}
	if outlierFrac < 0 || outlierFrac >= 0.5 {
		return nil, fmt.Errorf("dataset: outlier fraction must be in [0, 0.5), got %g", outlierFrac)
	}
	if imbalanceBase <= 0 || imbalanceBase > 1 {
		return nil, fmt.Errorf("dataset: imbalance base must be in (0,1], got %g", imbalanceBase)
	}
	h := &HardMixture{
		name: name, n: n, d: d, components: components,
		separation: separation, outlierFrac: outlierFrac,
		imbalanceBase: imbalanceBase, seed: seed,
		scale: make([]float64, d),
	}
	for u := range h.scale {
		h.scale[u] = spread
		if d > 1 {
			h.scale[u] = spread * math.Pow(anisotropyRatio, float64(u)/float64(d-1))
		}
	}
	// Partition the index space: components first (geometric masses),
	// outliers in the tail.
	clean := n - int(float64(n)*outlierFrac)
	if clean < components {
		clean = components
	}
	total := 0.0
	w := 1.0
	for c := 0; c < components; c++ {
		total += w
		w *= imbalanceBase
	}
	h.cut = make([]int, components)
	acc := 0.0
	w = 1.0
	for c := 0; c < components; c++ {
		acc += w
		w *= imbalanceBase
		h.cut[c] = int(math.Round(float64(clean) * acc / total))
		// Guarantee at least one sample per component.
		lo := 0
		if c > 0 {
			lo = h.cut[c-1]
		}
		if h.cut[c] <= lo {
			h.cut[c] = lo + 1
		}
	}
	h.cut[components-1] = clean
	return h, nil
}

// N implements Source.
func (h *HardMixture) N() int { return h.n }

// D implements Source.
func (h *HardMixture) D() int { return h.d }

// Components returns the number of true (non-outlier) components.
func (h *HardMixture) Components() int { return h.components }

// TrueLabel returns the ground-truth component of sample i, with
// Components() denoting the outlier background.
func (h *HardMixture) TrueLabel(i int) int {
	for c, hi := range h.cut {
		if i < hi {
			return c
		}
	}
	return h.components
}

// Center writes the centre of component c into buf.
func (h *HardMixture) Center(c int, buf []float64) {
	base := splitmix64(h.seed ^ uint64(c)*0xA24B_AED4_963E_E407)
	for u := 0; u < h.d; u++ {
		buf[u] = h.separation * symFloat(splitmix64(base+uint64(u)))
	}
}

// Sample implements Source.
func (h *HardMixture) Sample(i int, buf []float64) {
	lbl := h.TrueLabel(i)
	nBase := splitmix64(h.seed ^ 0x0D15EA5E ^ uint64(i)*0x2545_f491_4f6c_dd1d)
	if lbl == h.components {
		// Outlier: uniform over a box 3x the centre scale.
		for u := 0; u < h.d; u++ {
			buf[u] = 3 * h.separation * symFloat(splitmix64(nBase+uint64(u)))
		}
		return
	}
	cBase := splitmix64(h.seed ^ uint64(lbl)*0xA24B_AED4_963E_E407)
	buf = buf[:h.d]
	deviates(nBase, buf)
	for u := range buf {
		centre := h.separation * symFloat(splitmix64(cBase+uint64(u)))
		buf[u] = centre + h.scale[u]*buf[u]
	}
}
