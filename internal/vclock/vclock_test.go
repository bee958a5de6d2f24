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
