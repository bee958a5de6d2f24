// Package ldmprov seeds DMA and allocator sizing shapes for the
// ldm-provenance rule: hand-rolled sizes, capacity-derived sizes
// (direct and helper-wrapped), and Check*-gated functions (direct and
// helper-wrapped).
package ldmprov

import (
	"repro/internal/dma"
	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/vclock"
)

// chunkOf wraps the capacity model one call deep.
func chunkOf(spec *machine.Spec, k, d int) int {
	return ldm.Level1StreamChunk(spec, k, d)
}

// ensure wraps the feasibility gate in a helper.
func ensure(spec *machine.Spec, k, d int) error {
	return ldm.CheckLevel1(spec, k, d)
}

// HandSize invents the sizes at the call site: both sinks flagged.
func HandSize(e *dma.Engine, clk *vclock.Clock, a *ldm.Allocator) error {
	e.Charge(clk, 4096)
	return a.AllocFloats("buf", 4096)
}

// DirectChunk sizes the buffer straight from the capacity model.
func DirectChunk(spec *machine.Spec, a *ldm.Allocator, k, d int) error {
	return a.AllocFloats("buf", ldm.Level1StreamChunk(spec, k, d))
}

// HelperChunk sizes the buffer through the helper: blessed through
// chunkOf's summary.
func HelperChunk(spec *machine.Spec, a *ldm.Allocator, k, d int) error {
	n := chunkOf(spec, k, d)
	return a.AllocFloats("buf", n)
}

// Gated checks feasibility first; the checked k and d may size
// buffers.
func Gated(spec *machine.Spec, a *ldm.Allocator, k, d int) error {
	if err := ldm.CheckLevel1(spec, k, d); err != nil {
		return err
	}
	return a.AllocFloats("buf", k*d)
}

// HelperGated reaches the check through ensure: blessed through its
// summary.
func HelperGated(spec *machine.Spec, a *ldm.Allocator, k, d int) error {
	if err := ensure(spec, k, d); err != nil {
		return err
	}
	return a.AllocFloats("buf", k*d)
}
