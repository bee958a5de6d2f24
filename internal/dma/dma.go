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

	"repro/internal/fault"
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
	inj     *fault.Injector // nil when no faults are injected
	cg      int             // core group the injector attributes faults to
	unit    *obs.Unit       // span sink of the issuing CPE; nil disables
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

// WithFaults returns a derived engine whose transfers consult the
// injector for transient failures attributed to core group cg. Each
// transiently failed attempt is retried after an exponential backoff,
// with the wasted transfer time and the backoff charged to the virtual
// clock; once the retry budget is exhausted the transfer fails with an
// error wrapping fault.ErrDMAFailed. The receiver is unchanged.
func (e *Engine) WithFaults(inj *fault.Injector, cg int) *Engine {
	d := *e
	d.inj = inj
	d.cg = cg
	return &d
}

// WithObserver returns a derived engine that records every transfer as
// a "dma" span on the unit — retries included, so the span covers what
// the transfer really cost the issuing CPE. A nil unit returns the
// receiver unchanged, keeping the unobserved path allocation-free.
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
	if err := e.faultDelay(clock, len(src)); err != nil {
		return err
	}
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

// spanEnd records the whole transfer — retries and backoff included —
// as one "dma" span of elems modelled elements.
func (e *Engine) spanEnd(clock *vclock.Clock, start float64, elems int) {
	if e.unit == nil || clock == nil {
		return
	}
	e.unit.Record(obs.KindDMA, start, clock.Now(), int64(elems*ldm.ElemBytes), 0)
}

// faultDelay charges the retry cost of transient DMA faults for a
// transfer of elems elements. The fault decision for each attempt is a
// pure hash of (cg, virtual time, elems, attempt), so identical runs
// replay identical fault streams regardless of goroutine scheduling.
func (e *Engine) faultDelay(clock *vclock.Clock, elems int) error {
	if e.inj == nil {
		return nil
	}
	tt := e.TransferTime(elems)
	now := 0.0
	if clock != nil {
		now = clock.Now()
	}
	for attempt := 0; e.inj.DMAFault(e.cg, now, elems, attempt); attempt++ {
		if attempt >= e.inj.MaxRetries() {
			return fmt.Errorf("dma: CG %d transfer of %d elems at t=%.9fs exhausted %d retries: %w",
				e.cg, elems, now, e.inj.MaxRetries(), fault.ErrDMAFailed)
		}
		cost := tt + e.inj.Backoff(attempt+1)
		if clock != nil {
			clock.Advance(cost)
			now = clock.Now()
		}
	}
	return nil
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
