// Package dataset provides the workloads of the paper's evaluation as
// deterministic, streaming sample sources.
//
// The paper evaluates on UCI benchmarks (Kegg Network, Road Network,
// US Census 1990), an ImageNet-derived high-dimensional dataset
// (ILSVRC2012, n = 1,265,723, d up to 196,608) and a DeepGlobe-like
// land-cover image. None of those raw datasets are available offline,
// and the ImageNet shape would need terabytes materialized — so every
// workload is a synthetic generator with the published (n, k, d) shape
// whose samples are produced on the fly from the sample index alone.
// This keeps memory flat regardless of n·d while giving the clustering
// algorithms real structure (Gaussian mixtures with ground truth) to
// recover, which the quality metrics verify.
package dataset

import "fmt"

// Source is a deterministic stream of d-dimensional samples.
// Sample must be safe for concurrent use: simulated core groups read
// disjoint and overlapping index ranges from many goroutines. Members
// of a group that all read the same samples share a Stage, which
// generates each sample once per iteration for the group.
type Source interface {
	// N returns the number of samples.
	N() int
	// D returns the dimensionality.
	D() int
	// Sample writes sample i into buf, which must have length >= D().
	Sample(i int, buf []float64)
}

// splitmix64 is the deterministic hash at the core of every generator.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}

// symFloat maps a hash to [-1, 1).
func symFloat(x uint64) float64 { return 2*unitFloat(x) - 1 }

// Matrix is a fully materialized dataset stored row-major in one
// allocation. It is the Source used for small functional tests and for
// data loaded from CSV.
type Matrix struct {
	n, d int
	data []float64
}

// NewMatrix allocates an n-by-d zero matrix.
func NewMatrix(n, d int) (*Matrix, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("dataset: matrix shape must be positive, got %dx%d", n, d)
	}
	return &Matrix{n: n, d: d, data: make([]float64, n*d)}, nil
}

// FromRows builds a Matrix from row slices, which must be non-empty
// and rectangular.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("dataset: empty row set")
	}
	d := len(rows[0])
	m, err := NewMatrix(len(rows), d)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("dataset: ragged row %d: %d columns, want %d", i, len(r), d)
		}
		copy(m.data[i*d:], r)
	}
	return m, nil
}

// N implements Source.
func (m *Matrix) N() int { return m.n }

// D implements Source.
func (m *Matrix) D() int { return m.d }

// Sample implements Source.
func (m *Matrix) Sample(i int, buf []float64) {
	copy(buf, m.data[i*m.d:(i+1)*m.d])
}

// Row returns a read-only view of row i.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.d : (i+1)*m.d] }

// SetRow overwrites row i.
func (m *Matrix) SetRow(i int, row []float64) error {
	if len(row) != m.d {
		return fmt.Errorf("dataset: row length %d, want %d", len(row), m.d)
	}
	copy(m.data[i*m.d:], row)
	return nil
}

// Materialize reads every sample of src into a new Matrix. It is meant
// for small sources in tests; callers are responsible for ensuring
// n·d fits in memory.
func Materialize(src Source) (*Matrix, error) {
	m, err := NewMatrix(src.N(), src.D())
	if err != nil {
		return nil, err
	}
	for i := 0; i < src.N(); i++ {
		src.Sample(i, m.data[i*m.d:(i+1)*m.d])
	}
	return m, nil
}

// GaussianMixture is a streaming mixture-of-Gaussians source with
// ground-truth labels: sample i belongs to component i mod Components
// (a fixed assignment keeps the stream deterministic and balanced),
// its values are the component centre plus isotropic noise, and both
// centres and noise are hash-generated on demand so that arbitrarily
// large n·d shapes need no storage.
type GaussianMixture struct {
	name       string
	n, d       int
	components int
	spread     float64 // noise standard deviation
	separation float64 // centre scale
	seed       uint64
}

// NewGaussianMixture builds a mixture source. spread controls the
// within-component noise, separation the distance scale between
// component centres.
func NewGaussianMixture(name string, n, d, components int, spread, separation float64, seed uint64) (*GaussianMixture, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("dataset: mixture shape must be positive, got n=%d d=%d", n, d)
	}
	if components <= 0 || components > n {
		return nil, fmt.Errorf("dataset: components must be in [1,n], got %d", components)
	}
	if spread < 0 || separation <= 0 {
		return nil, fmt.Errorf("dataset: spread must be >= 0 and separation > 0")
	}
	return &GaussianMixture{
		name: name, n: n, d: d, components: components,
		spread: spread, separation: separation, seed: seed,
	}, nil
}

// Name returns the workload name.
func (g *GaussianMixture) Name() string { return g.name }

// N implements Source.
func (g *GaussianMixture) N() int { return g.n }

// D implements Source.
func (g *GaussianMixture) D() int { return g.d }

// Components returns the number of ground-truth components.
func (g *GaussianMixture) Components() int { return g.components }

// TrueLabel returns the ground-truth component of sample i.
func (g *GaussianMixture) TrueLabel(i int) int { return i % g.components }

// Center writes the centre of component c into buf.
func (g *GaussianMixture) Center(c int, buf []float64) {
	base := splitmix64(g.seed ^ uint64(c)*0x51_7c_c1_b7_27_22_0a_95)
	for u := 0; u < g.d; u++ {
		buf[u] = g.separation * symFloat(splitmix64(base+uint64(u)))
	}
}

// Sample implements Source: centre of the true component plus noise.
func (g *GaussianMixture) Sample(i int, buf []float64) {
	c := g.TrueLabel(i)
	cBase := splitmix64(g.seed ^ uint64(c)*0x51_7c_c1_b7_27_22_0a_95)
	nBase := splitmix64(g.seed ^ 0xabcd_ef01 ^ uint64(i)*0x2545_f491_4f6c_dd1d)
	buf = buf[:g.d]
	deviates(nBase, buf)
	for u := range buf {
		centre := g.separation * symFloat(splitmix64(cBase+uint64(u)))
		buf[u] = centre + g.spread*buf[u]
	}
}

// The published benchmark shapes of Table II.
const (
	KeggN   = 65554
	KeggD   = 28
	RoadN   = 434874
	RoadD   = 4
	CensusN = 2458285
	CensusD = 68
	ImgNetN = 1265723
	ImgNetD = 196608
)

// Kegg returns a Kegg-Network-shaped workload (n=65,554, d=28),
// optionally scaled down by scale >= 1 for functional runs.
func Kegg(scale int) (*GaussianMixture, error) {
	return scaled("Kegg Network", KeggN, KeggD, 256, scale)
}

// Road returns a Road-Network-shaped workload (n=434,874, d=4).
func Road(scale int) (*GaussianMixture, error) {
	return scaled("Road Network", RoadN, RoadD, 64, scale)
}

// Census returns a US-Census-1990-shaped workload (n=2,458,285, d=68).
func Census(scale int) (*GaussianMixture, error) {
	return scaled("US Census 1990", CensusN, CensusD, 32, scale)
}

// ImgNet returns an ILSVRC2012-shaped workload: n=1,265,723 samples of
// d dimensions, where d is one of the paper's image-feature sizes
// (3,072 = 32x32x3; 12,288 = 64x64x3; 196,608 = 256x256x3). Any
// positive d is accepted so figure sweeps can vary it freely.
func ImgNet(d, scale int) (*GaussianMixture, error) {
	if d <= 0 {
		return nil, fmt.Errorf("dataset: d must be positive, got %d", d)
	}
	g, err := scaled("ILSVRC2012", ImgNetN, d, 128, scale)
	return g, err
}

func scaled(name string, n, d, components, scale int) (*GaussianMixture, error) {
	if scale < 1 {
		return nil, fmt.Errorf("dataset: scale must be >= 1, got %d", scale)
	}
	n = n / scale
	if n < components {
		components = n
	}
	return NewGaussianMixture(name, n, d, components, 0.25, 2.0, 0x5EED_0000+uint64(len(name)))
}
