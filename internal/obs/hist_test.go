package obs

import (
	"math"
	"testing"
)

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.NaN(), 0},
		{1e-9, 0},      // exactly 1ns: bucket 0's upper bound
		{0.5e-9, 0},    // below base
		{2e-9, 1},      // exactly 2ns: (1, 2] → bucket 1
		{2.0001e-9, 2}, // just above 2ns → bucket 2
		{4e-9, 2},      // exactly 4ns
		{1e-6, 10},     // 1µs = 1000ns: 2^9=512 < 1000 <= 2^10=1024
		{1.0, 30},      // 1s = 1e9ns: 2^29 ≈ 5.4e8 < 1e9 <= 2^30 ≈ 1.07e9
		{math.MaxFloat64, NumHistBuckets - 1},
	}
	for _, c := range cases {
		if got := HistBucket(c.v); got != c.want {
			t.Errorf("HistBucket(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistBucketUpperContainsValue(t *testing.T) {
	// Every positive value must be at or below its bucket's upper
	// bound, and above the previous bucket's.
	for _, v := range []float64{1.5e-9, 3e-9, 1e-7, 4.2e-5, 0.003, 0.9, 17, 250} {
		i := HistBucket(v)
		if up := HistBucketUpper(i); v > up {
			t.Errorf("value %g above its bucket %d upper bound %g", v, i, up)
		}
		if i > 0 {
			if lo := HistBucketUpper(i - 1); v <= lo {
				t.Errorf("value %g not above bucket %d lower bound %g", v, i, lo)
			}
		}
	}
	if !math.IsInf(HistBucketUpper(NumHistBuckets-1), 1) {
		t.Error("last bucket upper bound is not +Inf")
	}
}

func TestHistogramObserveAddTotal(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 5; i++ {
		a.Observe(1e-6)
	}
	b.Observe(2.0)
	b.Observe(3.0)
	a.Add(&b)
	if got := a.Total(); got != 7 {
		t.Fatalf("Total = %d, want 7", got)
	}
	if math.Abs(a.Sum-(5e-6+5.0)) > 1e-12 {
		t.Errorf("Sum = %g", a.Sum)
	}
	if a.Counts[10] != 5 {
		t.Errorf("1µs bucket holds %d, want 5", a.Counts[10])
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	// 90 fast observations (1µs) and 10 slow (1s): p50 reports the
	// fast bucket's bound, p99 the slow one's.
	for i := 0; i < 90; i++ {
		h.Observe(1e-6)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.0)
	}
	p50 := h.Quantile(0.50)
	if p50 != HistBucketUpper(HistBucket(1e-6)) {
		t.Errorf("p50 = %g, want the 1µs bucket bound", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 != HistBucketUpper(HistBucket(1.0)) {
		t.Errorf("p99 = %g, want the 1s bucket bound", p99)
	}
	if q := h.Quantile(0); q != p50 || q > p99 {
		// q=0 clamps to the first observation's bucket.
		if q != HistBucketUpper(HistBucket(1e-6)) {
			t.Errorf("q=0 quantile = %g", q)
		}
	}
	// The overflow bucket reports its lower bound, not +Inf.
	var o Histogram
	o.Observe(math.MaxFloat64)
	if q := o.Quantile(1); math.IsInf(q, 1) {
		t.Error("overflow-bucket quantile is +Inf")
	}
}
