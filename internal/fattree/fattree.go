// Package fattree models the TaihuLight interconnect explicitly: 256
// nodes share one customized inter-connection board (a supernode) and
// boards connect through the central routing server with a tapered
// uplink. Unlike internal/netmodel — which charges a fixed per-class
// bandwidth factor — this model counts the concurrent flows that share
// a board uplink during a collective step and divides the uplink
// capacity among them, reproducing the congestion that makes
// cross-supernode collectives disproportionately expensive at scale
// (the effect behind the paper's advice to keep a CG group inside one
// supernode).
package fattree

import (
	"fmt"

	"repro/internal/ldm"
	"repro/internal/machine"
)

// Taper is the oversubscription ratio of a board's uplink to the
// central router: the uplink carries 1/Taper of the board's aggregate
// injection bandwidth. 4:1 is a typical fat-tree taper.
const Taper = 4.0

// Model is a contention-aware interconnect model over a deployment.
type Model struct {
	spec *machine.Spec
	// uplinkBW is the aggregate bytes/s between one board and the
	// central router.
	uplinkBW float64
}

// New builds the model from a machine spec.
func New(spec *machine.Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("fattree: %w", err)
	}
	return &Model{
		spec:     spec,
		uplinkBW: spec.BW.Network * machine.NodesPerSupernode / Taper,
	}, nil
}

// MustNew is New that panics on error.
func MustNew(spec *machine.Spec) *Model {
	m, err := New(spec)
	if err != nil {
		panic(err)
	}
	return m
}

// cgsPerSupernode is the CG count of one board.
const cgsPerSupernode = machine.NodesPerSupernode * machine.CGsPerNode

// FlowTime returns the time for one message of n bytes between CGs at
// the given stride apart, when flows concurrent messages of the same
// pattern cross the narrowest shared link simultaneously.
func (m *Model) FlowTime(stride, nBytes, flows int) (float64, error) {
	if stride < 1 {
		return 0, fmt.Errorf("fattree: stride must be positive, got %d", stride)
	}
	if nBytes < 0 {
		return 0, fmt.Errorf("fattree: negative message size %d", nBytes)
	}
	if flows < 1 {
		flows = 1
	}
	bw := m.spec.BW
	switch {
	case stride < machine.CGsPerNode:
		// Same node: memory-fabric class, no network contention.
		return bw.DMALatency + float64(nBytes)/bw.DMA, nil
	case stride < cgsPerSupernode:
		// Same board: every node has its own port; the per-flow NIC
		// bandwidth bounds the transfer.
		return bw.NetworkLatency + float64(nBytes)/bw.Network, nil
	default:
		// Crosses the central router: concurrent flows share the board
		// uplink.
		perFlow := m.uplinkBW / float64(flows)
		if perFlow > bw.Network {
			perFlow = bw.Network
		}
		return 2*bw.NetworkLatency + float64(nBytes)/perFlow, nil
	}
}

// ConcurrentAllReduceTime models `concurrent` independent binomial
// allreduces of the same shape running simultaneously over the same
// rank range — the Level-3 Update step, where every centroid-slice
// position owns its own communicator and all m′ of them reduce at
// once. Their cross-router flows share the board uplinks, which is
// where fat-tree contention genuinely appears.
func (m *Model) ConcurrentAllReduceTime(first, count, elems, concurrent int) (float64, error) {
	if count < 1 || first < 0 || first+count > m.spec.CGs() {
		return 0, fmt.Errorf("fattree: rank range [%d,%d) invalid", first, first+count)
	}
	if elems < 0 {
		return 0, fmt.Errorf("fattree: negative payload %d", elems)
	}
	if concurrent < 1 {
		return 0, fmt.Errorf("fattree: concurrent collectives must be positive, got %d", concurrent)
	}
	if count == 1 {
		return 0, nil
	}
	nBytes := elems * ldm.ElemBytes
	total := 0.0
	for stride := 1; stride < count; stride *= 2 {
		// Pairs exchanging at this level of one binomial tree.
		flows := count / (2 * stride)
		if flows < 1 {
			flows = 1
		}
		flows *= concurrent
		// Cross-router flows distribute across the boards the range
		// spans; each board's uplink carries its own share.
		if stride >= cgsPerSupernode {
			boards := (count + cgsPerSupernode - 1) / cgsPerSupernode
			if boards > 1 {
				flows = (flows + boards - 1) / boards
			}
		}
		t, err := m.FlowTime(stride, nBytes, flows)
		if err != nil {
			return 0, err
		}
		total += t
	}
	// Reduce plus broadcast traverse the tree twice.
	return 2 * total, nil
}

// ContentionFactor reports how much slower `concurrent` simultaneous
// allreduces run than an uncontended model that charges every level at
// its link class's full bandwidth. 1.0 means no contention.
func (m *Model) ContentionFactor(first, count, elems, concurrent int) (float64, error) {
	contended, err := m.ConcurrentAllReduceTime(first, count, elems, concurrent)
	if err != nil {
		return 0, err
	}
	nBytes := elems * ldm.ElemBytes
	plain := 0.0
	for stride := 1; stride < count; stride *= 2 {
		t, err := m.FlowTime(stride, nBytes, 1)
		if err != nil {
			return 0, err
		}
		plain += t
	}
	plain *= 2
	//swlint:ignore float-eq -- exact zero means no flows were modelled; any traffic yields a strictly positive sum
	if plain == 0 {
		return 1, nil
	}
	return contended / plain, nil
}
