// Package machine describes the simulated hardware: the SW26010
// heterogeneous many-core processor and the Sunway TaihuLight system
// topology it is deployed in.
//
// All capacities and bandwidths default to the values published in the
// paper (Section II.A and the experimental setup of Section IV.B):
// 64 KB of LDM per CPE, 64 CPEs plus one MPE per core group (CG), four
// CGs per processor (node), 256 nodes per supernode, DMA bandwidth of
// 32 GB/s, register-communication bandwidth of 46.4 GB/s and a 16 GB/s
// bidirectional fat-tree network between nodes.
package machine

import (
	"errors"
	"fmt"
)

// Architectural constants of the SW26010 processor as described in the
// paper. They are exposed as untyped constants so they can be used in
// array sizes and constant expressions.
const (
	// CPEsPerCG is the number of computing processing elements in one
	// core group, arranged as an 8-by-8 mesh.
	CPEsPerCG = 64
	// MeshSide is the side length of the CPE mesh (8 rows by 8 columns).
	MeshSide = 8
	// CGsPerNode is the number of core groups on one SW26010 processor.
	CGsPerNode = 4
	// NodesPerSupernode is the number of computing nodes connected by one
	// customized inter-connection board of the TaihuLight fat tree.
	NodesPerSupernode = 256
	// LDMBytes is the local directive memory (scratchpad) per CPE.
	LDMBytes = 64 * 1024
	// DRAMBytesPerNode is the DDR3 main memory shared by the four CGs of
	// one node (32 GB per the experimental setup).
	DRAMBytesPerNode = 32 << 30
	// CPEClockHz is the CPE clock rate (1.45 GHz).
	CPEClockHz = 1.45e9
)

// Bandwidths groups the fabric bandwidths used by the timing model.
// All values are bytes per second unless stated otherwise.
type Bandwidths struct {
	// DMA is the aggregate CPE-cluster DMA bandwidth to main memory of
	// one CG (the paper's B, 32 GB/s theoretical).
	DMA float64
	// RegComm is the register-communication bandwidth across the 8x8 CPE
	// mesh of one CG (the paper's R, 46.4 GB/s theoretical).
	RegComm float64
	// Network is the bidirectional peak bandwidth of the inter-node
	// network (the paper's M, 16 GB/s).
	Network float64
	// IntraSupernodeFactor scales effective network bandwidth for
	// communication that stays inside one supernode. The TaihuLight
	// fat tree makes intra-supernode communication more efficient than
	// inter-supernode communication; 1.0 means full peak.
	IntraSupernodeFactor float64
	// InterSupernodeFactor scales effective network bandwidth for
	// communication that crosses supernode boundaries through the
	// central routing server.
	InterSupernodeFactor float64
	// NetworkLatency is the per-message network latency in seconds.
	NetworkLatency float64
	// DMALatency is the per-transfer DMA startup latency in seconds.
	DMALatency float64
	// RegLatency is the per-transfer register-communication latency in
	// seconds (a handful of cycles).
	RegLatency float64
}

// DefaultBandwidths returns the published TaihuLight fabric parameters.
func DefaultBandwidths() Bandwidths {
	return Bandwidths{
		DMA:                  32e9,
		RegComm:              46.4e9,
		Network:              16e9,
		IntraSupernodeFactor: 1.0,
		InterSupernodeFactor: 0.6,
		NetworkLatency:       1.5e-6,
		DMALatency:           1.0e-6,
		RegLatency:           15.0 / CPEClockHz,
	}
}

// Compute groups the compute-rate parameters of a single CPE.
type Compute struct {
	// FlopsPerCPE is the sustained double-precision flop rate of one CPE
	// in flops per second. The theoretical peak is 8 flops/cycle at
	// 1.45 GHz = 11.6 Gflops; the default applies a sustained-efficiency
	// factor typical for memory-bound streaming kernels.
	FlopsPerCPE float64
}

// DefaultCompute returns the default per-CPE sustained compute rate.
func DefaultCompute() Compute {
	const peak = 8 * CPEClockHz
	return Compute{FlopsPerCPE: 0.35 * peak}
}

// Spec describes one simulated deployment: how many nodes are used and
// with which fabric parameters. The zero value is not usable; construct
// specs with NewSpec or the convenience helpers.
type Spec struct {
	// Nodes is the number of SW26010 processors applied.
	Nodes int
	// LDMBytesPerCPE is the scratchpad capacity per CPE.
	LDMBytesPerCPE int
	// DRAMBytesPerCG is the share of node main memory available to one
	// core group (node DRAM divided evenly across the four CGs).
	DRAMBytesPerCG int64
	// BW holds the fabric bandwidths.
	BW Bandwidths
	// CPU holds the compute rates.
	CPU Compute
}

// NewSpec returns a deployment of n nodes with default published
// parameters. It returns an error when n is not positive.
func NewSpec(nodes int) (*Spec, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("machine: node count must be positive, got %d", nodes)
	}
	return &Spec{
		Nodes:          nodes,
		LDMBytesPerCPE: LDMBytes,
		DRAMBytesPerCG: DRAMBytesPerNode / CGsPerNode,
		BW:             DefaultBandwidths(),
		CPU:            DefaultCompute(),
	}, nil
}

// MustSpec is like NewSpec but panics on error. It is intended for
// tests, examples and benchmark harnesses with constant arguments.
func MustSpec(nodes int) *Spec {
	s, err := NewSpec(nodes)
	if err != nil {
		panic(err)
	}
	return s
}

// CGs returns the total number of core groups in the deployment.
func (s *Spec) CGs() int { return s.Nodes * CGsPerNode }

// CPEs returns the total number of computing processing elements.
func (s *Spec) CPEs() int { return s.CGs() * CPEsPerCG }

// Supernodes returns the number of supernodes spanned by the deployment
// (partially filled supernodes count as one).
func (s *Spec) Supernodes() int {
	return (s.Nodes + NodesPerSupernode - 1) / NodesPerSupernode
}

// Validate checks internal consistency of a spec.
func (s *Spec) Validate() error {
	if s == nil {
		return errors.New("machine: nil spec")
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("machine: node count must be positive, got %d", s.Nodes)
	}
	if s.LDMBytesPerCPE <= 0 {
		return fmt.Errorf("machine: LDM capacity must be positive, got %d", s.LDMBytesPerCPE)
	}
	if s.DRAMBytesPerCG <= 0 {
		return fmt.Errorf("machine: per-CG DRAM capacity must be positive, got %d", s.DRAMBytesPerCG)
	}
	if s.BW.DMA <= 0 || s.BW.RegComm <= 0 || s.BW.Network <= 0 {
		return errors.New("machine: all bandwidths must be positive")
	}
	if s.BW.IntraSupernodeFactor <= 0 || s.BW.InterSupernodeFactor <= 0 {
		return errors.New("machine: supernode bandwidth factors must be positive")
	}
	if s.CPU.FlopsPerCPE <= 0 {
		return errors.New("machine: per-CPE flop rate must be positive")
	}
	return nil
}

// String implements fmt.Stringer with a compact human-readable summary.
func (s *Spec) String() string {
	return fmt.Sprintf("sw26010[nodes=%d cgs=%d cpes=%d supernodes=%d ldm=%dB]",
		s.Nodes, s.CGs(), s.CPEs(), s.Supernodes(), s.LDMBytesPerCPE)
}
