package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// LandCover is the synthetic DeepGlobe-2018-like workload behind the
// paper's Figure 10 application: land-cover classification of a
// remote-sensing image into 7 classes (urban, agriculture, rangeland,
// forest, water, barren, unknown). The image is a grid of pixel
// blocks; each block is one clustering sample whose d features are a
// per-class spectral signature modulated by low-frequency spatial
// texture plus noise, and the ground-truth class field is spatially
// coherent (smooth region boundaries), like real land cover.
type LandCover struct {
	width, height int // samples per row / rows (pixel blocks)
	d             int
	classes       int
	spread        float64
	seed          uint64
}

// LandCoverClasses is the DeepGlobe class count used in the paper.
const LandCoverClasses = 7

// LandCoverClassNames are the DeepGlobe 2018 class labels.
var LandCoverClassNames = [LandCoverClasses]string{
	"urban", "agriculture", "rangeland", "forest", "water", "barren", "unknown",
}

// NewLandCover builds a width-by-height block image whose samples have
// d features. The paper's full-scale case is one 2448x2448-pixel image
// clustered at n = 5,838,480 and d = 4096; reduced sizes preserve the
// pipeline.
func NewLandCover(width, height, d int, seed uint64) (*LandCover, error) {
	if width <= 0 || height <= 0 {
		return nil, fmt.Errorf("dataset: land-cover image shape must be positive, got %dx%d", width, height)
	}
	if d <= 0 {
		return nil, fmt.Errorf("dataset: land-cover d must be positive, got %d", d)
	}
	return &LandCover{
		width: width, height: height, d: d,
		classes: LandCoverClasses, spread: 0.18, seed: seed,
	}, nil
}

// N implements Source.
func (lc *LandCover) N() int { return lc.width * lc.height }

// D implements Source.
func (lc *LandCover) D() int { return lc.d }

// Classes returns the number of ground-truth land-cover classes.
func (lc *LandCover) Classes() int { return lc.classes }

// TrueClass returns the ground-truth class of the block at (x, y):
// a smooth multi-scale scalar field quantized into the class count,
// which yields contiguous regions with irregular boundaries.
func (lc *LandCover) TrueClass(x, y int) int {
	v := lc.field(float64(x), float64(y))
	c := int(v * float64(lc.classes))
	if c >= lc.classes {
		c = lc.classes - 1
	}
	if c < 0 {
		c = 0
	}
	return c
}

// field evaluates the smooth [0,1) spatial field at (x, y) using a few
// seeded sinusoidal octaves; deterministic in the seed.
func (lc *LandCover) field(x, y float64) float64 {
	w := float64(lc.width)
	h := float64(lc.height)
	v := 0.0
	amp := 0.5
	for oct := 0; oct < 4; oct++ {
		b := splitmix64(lc.seed + uint64(oct)*0x9e37)
		fx := 0.7 + 0.9*unitFloat(b)*float64(oct+1)
		fy := 0.7 + 0.9*unitFloat(splitmix64(b))*float64(oct+1)
		px := 2 * math.Pi * unitFloat(splitmix64(b+1))
		py := 2 * math.Pi * unitFloat(splitmix64(b+2))
		v += amp * (math.Sin(2*math.Pi*fx*x/w+px) * math.Cos(2*math.Pi*fy*y/h+py))
		amp *= 0.5
	}
	// v is in about [-1,1]; squash to [0,1).
	return 0.5 + 0.5*math.Tanh(v)
}

// TrueLabel returns the ground-truth class of sample i (row-major).
func (lc *LandCover) TrueLabel(i int) int {
	return lc.TrueClass(i%lc.width, i/lc.width)
}

// Signature writes the spectral signature of class c into buf.
func (lc *LandCover) Signature(c int, buf []float64) {
	base := splitmix64(lc.seed ^ 0xC1A5_5E5 ^ uint64(c)*0x100_0000_01b3)
	for u := 0; u < lc.d; u++ {
		buf[u] = 1.5 * symFloat(splitmix64(base+uint64(u)))
	}
}

// Sample implements Source: the class signature of the block's true
// class plus per-block noise.
func (lc *LandCover) Sample(i int, buf []float64) {
	c := lc.TrueLabel(i)
	sBase := splitmix64(lc.seed ^ 0xC1A5_5E5 ^ uint64(c)*0x100_0000_01b3)
	nBase := splitmix64(lc.seed ^ 0xB10C ^ uint64(i)*0x2545_f491_4f6c_dd1d)
	buf = buf[:lc.d]
	deviates(nBase, buf)
	for u := range buf {
		sig := 1.5 * symFloat(splitmix64(sBase+uint64(u)))
		buf[u] = sig + lc.spread*buf[u]
	}
}

// ClassPalette is the color used for each class when rendering the
// classification like Figure 10 (RGB triples).
var ClassPalette = [LandCoverClasses][3]byte{
	{0, 255, 255},   // urban: cyan
	{255, 255, 0},   // agriculture: yellow
	{255, 0, 255},   // rangeland: magenta
	{0, 255, 0},     // forest: green
	{0, 0, 255},     // water: blue
	{255, 255, 255}, // barren: white
	{0, 0, 0},       // unknown: black
}

// WritePPM renders a class map (one class index per block, row-major,
// width*height entries) as a binary PPM image, one pixel per block.
func (lc *LandCover) WritePPM(w io.Writer, classMap []int) error {
	if len(classMap) != lc.N() {
		return fmt.Errorf("dataset: class map has %d entries, want %d", len(classMap), lc.N())
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", lc.width, lc.height); err != nil {
		return err
	}
	for _, c := range classMap {
		if c < 0 || c >= lc.classes {
			c = lc.classes - 1
		}
		p := ClassPalette[c]
		if _, err := bw.Write(p[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TrueClassMap returns the ground-truth class field, row-major.
func (lc *LandCover) TrueClassMap() []int {
	m := make([]int, lc.N())
	for i := range m {
		m[i] = lc.TrueLabel(i)
	}
	return m
}
