// Package netmodel implements the timing model of the Sunway
// TaihuLight interconnect: a two-level fat tree in which 256 computing
// nodes form a supernode over a customized inter-connection board and
// supernodes are connected through a central routing server. Messages
// that stay inside a supernode see better effective bandwidth than
// messages that cross the central switch, which is why the paper
// places a CG group within one supernode whenever possible, and which
// produces the "communication boundary" steps visible in Figure 7.
package netmodel

import (
	"fmt"

	"repro/internal/machine"
)

// Model computes transfer times between core groups of a deployment.
type Model struct {
	spec *machine.Spec
	deg  Degrader
}

// Degrader supplies time-dependent link slowdown factors. It is
// implemented by *fault.Injector; netmodel depends only on the
// interface so the timing model stays fault-agnostic.
type Degrader interface {
	// LinkFactor returns the bandwidth-division factor (at least 1) in
	// effect on the src-dst link at virtual time at.
	LinkFactor(src, dst int, at float64) float64
}

// New returns a network model over the given deployment spec.
func New(spec *machine.Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("netmodel: %w", err)
	}
	return &Model{spec: spec}, nil
}

// MustNew is New that panics on error.
func MustNew(spec *machine.Spec) *Model {
	m, err := New(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// Bandwidth returns the effective point-to-point bandwidth in bytes
// per second for a message travelling the given distance class.
func (m *Model) Bandwidth(d machine.Distance) float64 {
	bw := m.spec.BW
	switch d {
	case machine.SameCG:
		// Never leaves the processor: bounded by DMA to shared memory.
		return bw.DMA
	case machine.SameNode:
		// Crosses CGs through node memory; same fabric class as DMA.
		return bw.DMA
	case machine.SameSupernode:
		return bw.Network * bw.IntraSupernodeFactor
	case machine.CrossSupernode:
		return bw.Network * bw.InterSupernodeFactor
	default:
		// Unknown distances are charged at the slowest class rather
		// than panicking inside the timing hot path.
		return bw.Network * bw.InterSupernodeFactor
	}
}

// Latency returns the per-message startup latency in seconds for the
// given distance class.
func (m *Model) Latency(d machine.Distance) float64 {
	bw := m.spec.BW
	switch d {
	case machine.SameCG, machine.SameNode:
		return bw.DMALatency
	case machine.SameSupernode:
		return bw.NetworkLatency
	default:
		// The central routing server adds a hop.
		return 2 * bw.NetworkLatency
	}
}

// Degraded returns a model over the same deployment that consults d
// for link degradation in TransferTimeAt. A nil degrader returns the
// receiver unchanged, so fault-free paths share one model.
func (m *Model) Degraded(d Degrader) *Model {
	if d == nil {
		return m
	}
	return &Model{spec: m.spec, deg: d}
}

// TransferTime returns the modelled time in seconds to move n bytes
// from CG src to CG dst. Zero-byte messages still pay latency (they
// model synchronization signals).
func (m *Model) TransferTime(src, dst, n int) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("netmodel: negative message size %d", n)
	}
	d, err := m.spec.DistanceBetween(src, dst)
	if err != nil {
		return 0, err
	}
	return m.Latency(d) + float64(n)/m.Bandwidth(d), nil
}

// TransferTimeAt is TransferTime evaluated at virtual time at: when a
// degrader is installed, the serialization term is stretched by the
// link factor in effect at that time while the startup latency is
// unchanged (degraded links lose bandwidth, not signalling).
func (m *Model) TransferTimeAt(src, dst, n int, at float64) (float64, error) {
	if n < 0 {
		return 0, fmt.Errorf("netmodel: negative message size %d", n)
	}
	d, err := m.spec.DistanceBetween(src, dst)
	if err != nil {
		return 0, err
	}
	factor := 1.0
	if m.deg != nil {
		factor = m.deg.LinkFactor(src, dst, at)
	}
	return m.Latency(d) + float64(n)*factor/m.Bandwidth(d), nil
}

// GroupDistance returns the widest distance class spanned by the CG
// index range [first, first+count): the class that a collective over
// the contiguous rank range is charged at.
func (m *Model) GroupDistance(first, count int) (machine.Distance, error) {
	if count <= 0 {
		return 0, fmt.Errorf("netmodel: group size must be positive, got %d", count)
	}
	last := first + count - 1
	return m.spec.DistanceBetween(first, last)
}
