package vclock

import (
	"math"
	"testing"
)

func TestClockAdvance(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("new clock at %g, want 0", c.Now())
	}
	c.Advance(1.5)
	c.Advance(0.5)
	if c.Now() != 2.0 {
		t.Errorf("Now() = %g, want 2.0", c.Now())
	}
	c.Advance(0) // zero advance is legal
	if c.Now() != 2.0 {
		t.Errorf("Now() after zero advance = %g, want 2.0", c.Now())
	}
}

func TestClockAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Advance(-1) did not panic")
		}
	}()
	New().Advance(-1)
}

func TestClockAdvancePanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Advance(NaN) did not panic")
		}
	}()
	New().Advance(math.NaN())
}

func TestAdvanceTo(t *testing.T) {
	c := New()
	c.Advance(5)
	c.AdvanceTo(3) // earlier: no-op
	if c.Now() != 5 {
		t.Errorf("AdvanceTo(3) moved clock to %g, want 5", c.Now())
	}
	c.AdvanceTo(7)
	if c.Now() != 7 {
		t.Errorf("AdvanceTo(7) = %g, want 7", c.Now())
	}
}

func TestAdvanceToPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo(NaN) did not panic")
		}
	}()
	New().AdvanceTo(math.NaN())
}

func TestReset(t *testing.T) {
	c := New()
	c.Advance(10)
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Reset left clock at %g", c.Now())
	}
}

func TestMaxTime(t *testing.T) {
	a, b, c := New(), New(), New()
	a.Advance(1)
	b.Advance(9)
	c.Advance(4)
	if got := MaxTime(a, b, c); got != 9 {
		t.Errorf("MaxTime = %g, want 9", got)
	}
	if got := MaxTime(); got != 0 {
		t.Errorf("MaxTime() of nothing = %g, want 0", got)
	}
}

func TestAdvanceScaled(t *testing.T) {
	c := New()
	c.AdvanceScaled(2, 1.5)
	if math.Abs(c.Now()-3) > 1e-12 {
		t.Errorf("AdvanceScaled(2, 1.5): clock = %g, want 3", c.Now())
	}
	c.AdvanceScaled(1, 1)
	if math.Abs(c.Now()-4) > 1e-12 {
		t.Errorf("factor 1 must behave like Advance: clock = %g, want 4", c.Now())
	}
	for _, factor := range []float64{0.5, 0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AdvanceScaled with factor %v did not panic", factor)
				}
			}()
			New().AdvanceScaled(1, factor)
		}()
	}
}
