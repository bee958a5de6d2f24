package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs                    []float64
		min, q1, med, q3, max float64
	}{
		{[]float64{7}, 7, 7, 7, 7, 7},
		{[]float64{3, 1, 2}, 1, 1.5, 2, 2.5, 3},
		{[]float64{4, 1, 3, 2}, 1, 1.75, 2.5, 3.25, 4},
		{seq(9), 1, 3, 5, 7, 9},
	} {
		s := summarize(c.xs)
		got := []float64{s.Min, s.Q1, s.Med, s.Q3, s.Max}
		want := []float64{c.min, c.q1, c.med, c.q3, c.max}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Errorf("%v: summary %v, want %v", c.xs, got, want)
				break
			}
		}
		if s.N != len(c.xs) {
			t.Errorf("%v: n=%d", c.xs, s.N)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("empty sample summarized as %+v", s)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	// Below 21 samples the tail is the median.
	for _, n := range []int{1, 2, 10, 11, 20} {
		xs := seq(n)
		if got, want := tail(xs), median(xs); got != want {
			t.Errorf("n=%d: tail %g, want the median %g", n, got, want)
		}
	}
	for n := 21; n <= 3000; n++ {
		xs := seq(n)
		v := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: tail %g has %d samples beyond it", n, v, beyond)
		}
		// The highest such quantile, capped at p99: one step higher
		// would leave fewer than ten beyond, or pass p99.
		if q := tailQuantile(n); q < 0.99 && beyond != 10 {
			t.Fatalf("n=%d: tail at q=%g has %d beyond, want exactly 10", n, q, beyond)
		}
	}
	if q := tailQuantile(100); math.Abs(q-0.9) > 1e-12 {
		t.Errorf("n=100: quantile %g, want 0.9", q)
	}
	if q := tailQuantile(5000); q != 0.99 {
		t.Errorf("n=5000: quantile %g, want the p99 cap", q)
	}
	if got := tail(seq(1000)); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestWindowTailIsMedianOfWindows(t *testing.T) {
	quiet := seq(100) // p90 = 90
	loud := seq(100)
	for i := range loud {
		loud[i] *= 50
	}
	got := windowTail([][]float64{quiet, loud, quiet, quiet, nil})
	if got != 90 {
		t.Errorf("window tail %g, want 90: one disturbed window must not move it", got)
	}
	if pooled := tail(append(append(append([]float64{}, quiet...), loud...), quiet...)); pooled <= 90 {
		t.Errorf("pooled tail %g should see the disturbed window", pooled)
	}
	if windowTail(nil) != 0 {
		t.Error("no windows should give 0")
	}
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	o := newOpenLoop(t0, 400) // one request every 2.5ms
	if got := o.due(4); !got.Equal(t0.Add(10 * time.Millisecond)) {
		t.Fatalf("due(4) = %v", got.Sub(t0))
	}
	// Request 4 waited behind a stall: sent 3ms late, answered 1ms
	// after sending. Its latency counts the wait.
	sent := o.due(4).Add(3 * time.Millisecond)
	done := sent.Add(time.Millisecond)
	if got := o.latency(4, done); got != 4*time.Millisecond {
		t.Errorf("latency %v, want 4ms from the due time", got)
	}
	if got := o.lateness(4, sent); got != 3*time.Millisecond {
		t.Errorf("lateness %v, want 3ms", got)
	}
	// A send ahead of schedule is not negative lateness.
	if got := o.lateness(4, o.due(4).Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send lateness %v, want 0", got)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms = %g", got)
	}
}

func TestMeasurement(t *testing.T) {
	ops := backToBack([]float64{400, 500, 800})
	if got := ops.latency(); got != 500 {
		t.Errorf("back-to-back latency %g, want the median 500", got)
	}
	if got := ops.tail(); got != 500 {
		t.Errorf("tail of 3 operations %g, want the median", got)
	}
	served := measurement{lat: [][]float64{seq(100), seq(100), append(seq(99), 5000)}}
	if got := served.latency(); got != 50.5 {
		t.Errorf("served latency %g, want the pooled median 50.5", got)
	}
	if got := served.tail(); got != 90 {
		t.Errorf("served tail %g, want the median window tail 90", got)
	}
}

func TestActiveTimeLeavesOutSteal(t *testing.T) {
	const msec = time.Millisecond
	for _, c := range []struct {
		name                   string
		wall, cpu, steal, want time.Duration
	}{
		{"no steal", 1000 * msec, 1900 * msec, 0, 1000 * msec},
		{"one thread", 1200 * msec, 1000 * msec, 200 * msec, 1000 * msec},
		{"two busy CPUs", 1100 * msec, 2000 * msec, 200 * msec, 1000 * msec},
		{"no CPU time read", 1000 * msec, 0, 300 * msec, 1000 * msec},
	} {
		if got := activeTime(c.wall, c.cpu, c.steal); got != c.want {
			t.Errorf("%s: active %v, want %v", c.name, got, c.want)
		}
	}
	// A real run reads clocks that only go forward.
	c := readHostClock()
	if active, wall := c.activeSince(); active < 0 || active > wall {
		t.Errorf("active %v outside [0, wall %v]", active, wall)
	}
}
