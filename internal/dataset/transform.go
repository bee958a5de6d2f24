package dataset

import "fmt"

// SliceView is a contiguous sample-range view of a Source.
type SliceView struct {
	src    Source
	lo, hi int
}

// Slice returns the view of src covering samples [lo, hi).
func Slice(src Source, lo, hi int) (*SliceView, error) {
	if lo < 0 || hi > src.N() || lo >= hi {
		return nil, fmt.Errorf("dataset: slice [%d,%d) out of range [0,%d)", lo, hi, src.N())
	}
	return &SliceView{src: src, lo: lo, hi: hi}, nil
}

// N implements Source.
func (v *SliceView) N() int { return v.hi - v.lo }

// D implements Source.
func (v *SliceView) D() int { return v.src.D() }

// Sample implements Source.
func (v *SliceView) Sample(i int, buf []float64) { v.src.Sample(v.lo+i, buf) }
