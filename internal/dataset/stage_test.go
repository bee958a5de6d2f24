package dataset

import (
	"slices"
	"testing"
)

// countingMatrix counts Sample calls.
type countingMatrix struct {
	*Matrix
	calls int
}

func (c *countingMatrix) Sample(i int, buf []float64) {
	c.calls++
	c.Matrix.Sample(i, buf)
}

// TestStageLoad: a batch is generated on its first load and read in
// place after that, batch b lands in buffer b&1, the same batch of the
// next iteration is generated again, and a strided batch holds the
// samples it names.
func TestStageLoad(t *testing.T) {
	const n, d = 40, 3
	m, err := NewMatrix(n, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.SetRow(i, []float64{float64(i), -float64(i), 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	src := &countingMatrix{Matrix: m}
	s := NewStage(src, 4, 10)

	want := func(first, stride, rows int) []float64 {
		var out []float64
		for r := 0; r < rows; r++ {
			out = append(out, m.Row(first+r*stride)...)
		}
		return out
	}
	check := func(label string, got []float64, first, stride, rows, calls int) {
		t.Helper()
		if !slices.Equal(got, want(first, stride, rows)) {
			t.Errorf("%s: rows %v, want samples %d+%d·r", label, got, first, stride)
		}
		if src.calls != calls {
			t.Errorf("%s: %d Sample calls, want %d", label, src.calls, calls)
		}
	}

	// Iteration 0: three batches of up to 4 samples at stride 3 from 10,
	// the last one short.
	b0 := s.Load(0, 0, 10, 3, 4)
	check("iter 0 batch 0", b0, 10, 3, 4, 4)
	check("iter 0 batch 0 again", s.Load(0, 0, 10, 3, 4), 10, 3, 4, 4)
	b1 := s.Load(0, 1, 22, 3, 4)
	check("iter 0 batch 1", b1, 22, 3, 4, 8)
	// Batch 1 is in the other buffer: batch 0 is still staged.
	check("iter 0 batch 0 beside batch 1", b0, 10, 3, 4, 8)
	check("iter 0 batch 0 reread", s.Load(0, 0, 10, 3, 4), 10, 3, 4, 8)
	check("iter 0 batch 2", s.Load(0, 2, 34, 3, 2), 34, 3, 2, 10)
	check("iter 0 batch 1 reread", s.Load(0, 1, 22, 3, 4), 22, 3, 4, 10)

	// Iteration 1 generates batch 0 again, into the buffer the short
	// batch 2 used.
	check("iter 1 batch 0", s.Load(1, 0, 10, 3, 4), 10, 3, 4, 14)
	check("iter 1 batch 0 again", s.Load(1, 0, 10, 3, 4), 10, 3, 4, 14)
}

// TestStageSizesBuffersToItsBatches: each buffer holds the largest
// batch it stages and no more, so one batch per iteration keeps one
// buffer.
func TestStageSizesBuffersToItsBatches(t *testing.T) {
	g, err := NewGaussianMixture("g", 64, 5, 2, 0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		batch, samples int
		even, odd      int // rows of buffers 0 and 1
	}{
		{batch: 256, samples: 7, even: 7, odd: 0},
		{batch: 7, samples: 7, even: 7, odd: 0},
		{batch: 7, samples: 10, even: 7, odd: 3},
		{batch: 7, samples: 40, even: 7, odd: 7},
		{batch: 1, samples: 1, even: 1, odd: 0},
		{batch: 4, samples: 0, even: 0, odd: 0},
	} {
		s := NewStage(g, c.batch, c.samples)
		s.mu.Lock()
		even, odd := len(s.rows[0]), len(s.rows[1])
		s.mu.Unlock()
		if even != c.even*5 || odd != c.odd*5 {
			t.Errorf("batch %d of %d samples: buffers hold %d and %d values, want %d and %d",
				c.batch, c.samples, even, odd, c.even*5, c.odd*5)
		}
	}
}
