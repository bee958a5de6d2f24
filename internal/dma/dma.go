// Package dma simulates the DMA engine that moves data between a core
// group's share of main memory and the LDM scratchpads of its CPEs.
// On the real SW26010 the CPE cluster issues explicit DMA get/put
// requests and the aggregate bandwidth of one CG is about 32 GB/s; the
// simulated engine performs the copy functionally (so kernels compute
// on real data), records the traffic in trace counters and charges the
// virtual clock with the transfer time.
//
// Modelled bytes are accounted at ldm.ElemBytes per element to match
// the single-precision arithmetic of the paper's implementation, even
// though the host computes in float64.
package dma

import (
	"fmt"

	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Engine is the DMA controller of one core group.
type Engine struct {
	bw      float64 // bytes per second
	latency float64 // seconds per transfer
	stats   *trace.Stats
	unit    *obs.Unit // span sink of the issuing CPE; nil disables
}

// New returns a DMA engine with the spec's published bandwidth and
// latency. The stats sink may be nil to disable accounting.
func New(spec *machine.Spec, stats *trace.Stats) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("dma: %w", err)
	}
	return &Engine{bw: spec.BW.DMA, latency: spec.BW.DMALatency, stats: stats}, nil
}

// MustNew is New that panics on error.
func MustNew(spec *machine.Spec, stats *trace.Stats) *Engine {
	e, err := New(spec, stats)
	if err != nil {
		panic(err)
	}
	return e
}

// WithObserver returns a derived engine that records every transfer as
// a "dma" span on the unit. A nil unit returns the receiver unchanged,
// keeping the unobserved path allocation-free.
func (e *Engine) WithObserver(u *obs.Unit) *Engine {
	if u == nil {
		return e
	}
	d := *e
	d.unit = u
	return &d
}

// TransferTime returns the modelled duration of moving n elements.
func (e *Engine) TransferTime(elems int) float64 {
	if elems <= 0 {
		return 0
	}
	return e.latency + float64(elems*ldm.ElemBytes)/e.bw
}

// Get copies src from simulated main memory into the LDM destination
// buffer dst, charging clock with the transfer time. It is the
// simulated equivalent of athread DMA get. dst and src must have equal
// length.
func (e *Engine) Get(clock *vclock.Clock, dst, src []float64) error {
	return e.transfer(clock, dst, src)
}

// Put copies the LDM source buffer src back to simulated main memory
// dst, charging clock with the transfer time (DMA put).
func (e *Engine) Put(clock *vclock.Clock, dst, src []float64) error {
	return e.transfer(clock, dst, src)
}

func (e *Engine) transfer(clock *vclock.Clock, dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("dma: length mismatch dst=%d src=%d", len(dst), len(src))
	}
	if len(src) == 0 {
		return nil
	}
	start := e.spanStart(clock)
	copy(dst, src)
	e.account(clock, len(src))
	e.spanEnd(clock, start, len(src))
	return nil
}

// spanStart captures the virtual time a transfer begins, when spans
// are being recorded.
func (e *Engine) spanStart(clock *vclock.Clock) float64 {
	if e.unit == nil || clock == nil {
		return 0
	}
	return clock.Now()
}

// spanEnd records the transfer as one "dma" span of elems modelled
// elements.
func (e *Engine) spanEnd(clock *vclock.Clock, start float64, elems int) {
	if e.unit == nil || clock == nil {
		return
	}
	e.unit.Record(obs.KindDMA, start, clock.Now(), int64(elems*ldm.ElemBytes), 0)
}

// Charge accounts for a transfer of elems elements without performing
// a copy. Engines use it when data is produced directly into the
// destination (for example a streaming dataset source writing into an
// LDM buffer) but the traffic still crossed the memory interface.
func (e *Engine) Charge(clock *vclock.Clock, elems int) {
	if elems <= 0 {
		return
	}
	start := e.spanStart(clock)
	e.account(clock, elems)
	e.spanEnd(clock, start, elems)
}

func (e *Engine) account(clock *vclock.Clock, elems int) {
	e.stats.AddDMA(int64(elems * ldm.ElemBytes))
	if clock != nil {
		clock.Advance(e.TransferTime(elems))
	}
}
