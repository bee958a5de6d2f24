// Package trace is the traffic ledger of the machine simulator: the
// volumes the paper's cost model charges per fabric — DMA between main
// memory and LDM (T_read), the CPE register mesh and the network
// (T_comm) — plus the flops of the compute kernels. Every substrate
// reports the work it performed to a Stats sink, and a run's
// Result.Traffic is the difference of two snapshots, which the
// command-line summaries and the benchmark print. Recovery accounting
// is not kept here: core.Recovery owns it.
package trace

import (
	"fmt"
	"sync/atomic"
)

// Stats accumulates work volumes. All methods are safe for concurrent
// use; simulated units on different goroutines may share one Stats.
type Stats struct {
	dmaBytes     atomic.Int64
	dmaTransfers atomic.Int64
	regBytes     atomic.Int64
	regTransfers atomic.Int64
	netBytes     atomic.Int64
	netMessages  atomic.Int64
	flops        atomic.Int64
}

// NewStats returns an empty counter set.
func NewStats() *Stats { return &Stats{} }

// AddDMA records one DMA transfer of n bytes between main memory and an
// LDM buffer.
func (s *Stats) AddDMA(n int64) {
	if s == nil {
		return
	}
	s.dmaBytes.Add(n)
	s.dmaTransfers.Add(1)
}

// AddReg records one register-communication transfer of n bytes across
// the CPE mesh.
func (s *Stats) AddReg(n int64) {
	if s == nil {
		return
	}
	s.regBytes.Add(n)
	s.regTransfers.Add(1)
}

// AddNet records one network message of n bytes between core groups.
func (s *Stats) AddNet(n int64) {
	if s == nil {
		return
	}
	s.netBytes.Add(n)
	s.netMessages.Add(1)
}

// AddNetMessages records n network messages of bytes bytes in total.
func (s *Stats) AddNetMessages(n, bytes int64) {
	if s == nil {
		return
	}
	s.netBytes.Add(bytes)
	s.netMessages.Add(n)
}

// AddFlops records n floating-point operations executed by compute
// kernels.
func (s *Stats) AddFlops(n int64) {
	if s == nil {
		return
	}
	s.flops.Add(n)
}

// Snapshot is an immutable copy of the counters at one point in time.
type Snapshot struct {
	DMABytes     int64
	DMATransfers int64
	RegBytes     int64
	RegTransfers int64
	NetBytes     int64
	NetMessages  int64
	Flops        int64
}

// Snapshot returns the current counter values.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		DMABytes:     s.dmaBytes.Load(),
		DMATransfers: s.dmaTransfers.Load(),
		RegBytes:     s.regBytes.Load(),
		RegTransfers: s.regTransfers.Load(),
		NetBytes:     s.netBytes.Load(),
		NetMessages:  s.netMessages.Load(),
		Flops:        s.flops.Load(),
	}
}

// Sub returns the delta a-b of two snapshots, used to isolate the
// traffic of a single run from cumulative counters.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		DMABytes:     a.DMABytes - b.DMABytes,
		DMATransfers: a.DMATransfers - b.DMATransfers,
		RegBytes:     a.RegBytes - b.RegBytes,
		RegTransfers: a.RegTransfers - b.RegTransfers,
		NetBytes:     a.NetBytes - b.NetBytes,
		NetMessages:  a.NetMessages - b.NetMessages,
		Flops:        a.Flops - b.Flops,
	}
}

// String renders a compact single-line breakdown.
func (a Snapshot) String() string {
	return fmt.Sprintf("dma=%s(%d) reg=%s(%d) net=%s(%d) flops=%s",
		formatBytes(a.DMABytes), a.DMATransfers,
		formatBytes(a.RegBytes), a.RegTransfers,
		formatBytes(a.NetBytes), a.NetMessages,
		formatCount(a.Flops))
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// formatCount renders a large count with a decimal SI suffix.
func formatCount(n int64) string {
	const unit = 1000
	if n < unit {
		return fmt.Sprintf("%d", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f%c", float64(n)/float64(div), "kMGTPE"[exp])
}
