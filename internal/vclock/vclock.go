// Package vclock implements the virtual-time substrate of the machine
// simulator. Every parallel unit (a core group in the large-scale
// engines, a CPE in the fine-grained substrates) owns a Clock that is
// advanced by the cost of the operations it executes. Communication
// reconciles clocks: a receive cannot complete before the matching send
// was issued, and collective operations synchronize all participants to
// the maximum participant time plus the cost of the collective.
//
// The resulting per-run maximum clock value is exactly the paper's
// metric: one-iteration completion time on the simulated machine.
package vclock

import (
	"fmt"
	"math"
)

// Clock is the virtual time line of one simulated parallel unit.
// A Clock is not safe for concurrent use; each simulated unit owns its
// clock exclusively and cross-unit reconciliation happens through
// message timestamps.
type Clock struct {
	t float64
}

// New returns a clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.t }

// Advance moves the clock forward by d seconds. Negative or NaN
// durations are rejected with a panic: they always indicate a bug in a
// cost model, and silently accepting them would corrupt every
// downstream measurement.
func (c *Clock) Advance(d float64) {
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("vclock: invalid advance %v", d))
	}
	c.t += d
}

// AdvanceScaled moves the clock forward by d seconds stretched by a
// slowdown factor — the hook the fault injector's straggler model uses
// to make one unit's compute run slow without touching the cost models
// themselves. factor must be at least 1: stragglers lose time, they
// never gain it.
func (c *Clock) AdvanceScaled(d, factor float64) {
	if factor < 1 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("vclock: invalid slowdown factor %v", factor))
	}
	c.Advance(d * factor)
}

// AdvanceTo moves the clock forward to time t if t is later than the
// current time; earlier times leave the clock unchanged (virtual time
// never runs backwards).
func (c *Clock) AdvanceTo(t float64) {
	if math.IsNaN(t) {
		panic("vclock: advance to NaN")
	}
	if t > c.t {
		c.t = t
	}
}

// Reset returns the clock to zero. Engines reset clocks between
// iterations when they measure per-iteration time directly.
func (c *Clock) Reset() { c.t = 0 }

// MaxTime returns the latest time across the given clocks, i.e. the
// completion time of a fork-join region whose branches own the clocks.
func MaxTime(clocks ...*Clock) float64 {
	m := 0.0
	for _, c := range clocks {
		if c.t > m {
			m = c.t
		}
	}
	return m
}
