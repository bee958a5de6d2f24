// Package trace provides the instrumentation counters of the machine
// simulator. Every substrate (DMA engine, register-communication mesh,
// message-passing layer, compute kernels) reports the volume of work it
// performed to a Stats sink; engines aggregate per-unit stats into a
// per-iteration traffic breakdown that the benchmark harnesses print
// next to the timing results.
package trace

import (
	"fmt"
	"math"
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

	// Recovery counters: what fault injection cost the run, phase by
	// phase, with the time components in virtual seconds — the same
	// metric every figure reports. Retry time has no counter here: the
	// message layer keeps it per rank and sums it in rank order, which
	// a shared float could not do deterministically.
	dmaRetries        atomic.Int64
	netRetries        atomic.Int64
	checkpoints       atomic.Int64
	checkpointBytes   atomic.Int64
	replans           atomic.Int64
	checkpointSeconds atomicSeconds
	restoreSeconds    atomicSeconds
	replanSeconds     atomicSeconds
	redoSeconds       atomicSeconds
}

// atomicSeconds accumulates a float64 duration with lock-free
// compare-and-swap on the raw bits, so concurrent simulated units can
// charge virtual seconds to a shared sink.
type atomicSeconds struct {
	bits atomic.Uint64
}

// Add folds d into the accumulator.
func (a *atomicSeconds) Add(d float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the accumulated seconds.
func (a *atomicSeconds) Load() float64 { return math.Float64frombits(a.bits.Load()) }

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

// AddDMARetry records n transiently failed DMA attempts that were
// retried.
func (s *Stats) AddDMARetry(n int64) {
	if s == nil {
		return
	}
	s.dmaRetries.Add(n)
}

// AddNetRetry records n retransmitted messages.
func (s *Stats) AddNetRetry(n int64) {
	if s == nil {
		return
	}
	s.netRetries.Add(n)
}

// AddCheckpoint records one checkpoint write of n bytes taking the
// given virtual seconds.
func (s *Stats) AddCheckpoint(n int64, seconds float64) {
	if s == nil {
		return
	}
	s.checkpoints.Add(1)
	s.checkpointBytes.Add(n)
	s.checkpointSeconds.Add(seconds)
}

// AddRestore records virtual seconds spent reading a checkpoint back
// from stable storage and broadcasting the restored model.
func (s *Stats) AddRestore(seconds float64) {
	if s == nil {
		return
	}
	s.restoreSeconds.Add(seconds)
}

// AddReplan records one recovery re-plan (failure detection, surviving
// communicator agreement and state redistribution) of the given
// virtual duration.
func (s *Stats) AddReplan(seconds float64) {
	if s == nil {
		return
	}
	s.replans.Add(1)
	s.replanSeconds.Add(seconds)
}

// AddRedo records virtual seconds spent re-executing iterations that
// were lost to a crash and restarted from the last checkpoint.
func (s *Stats) AddRedo(seconds float64) {
	if s == nil {
		return
	}
	s.redoSeconds.Add(seconds)
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

	DMARetries        int64
	NetRetries        int64
	Checkpoints       int64
	CheckpointBytes   int64
	Replans           int64
	CheckpointSeconds float64
	RestoreSeconds    float64
	ReplanSeconds     float64
	RedoSeconds       float64
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

		DMARetries:        s.dmaRetries.Load(),
		NetRetries:        s.netRetries.Load(),
		Checkpoints:       s.checkpoints.Load(),
		CheckpointBytes:   s.checkpointBytes.Load(),
		Replans:           s.replans.Load(),
		CheckpointSeconds: s.checkpointSeconds.Load(),
		RestoreSeconds:    s.restoreSeconds.Load(),
		ReplanSeconds:     s.replanSeconds.Load(),
		RedoSeconds:       s.redoSeconds.Load(),
	}
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	s.dmaBytes.Store(0)
	s.dmaTransfers.Store(0)
	s.regBytes.Store(0)
	s.regTransfers.Store(0)
	s.netBytes.Store(0)
	s.netMessages.Store(0)
	s.flops.Store(0)
	s.dmaRetries.Store(0)
	s.netRetries.Store(0)
	s.checkpoints.Store(0)
	s.checkpointBytes.Store(0)
	s.replans.Store(0)
	s.checkpointSeconds.bits.Store(0)
	s.restoreSeconds.bits.Store(0)
	s.replanSeconds.bits.Store(0)
	s.redoSeconds.bits.Store(0)
}

// Sub returns the delta a-b of two snapshots, used to isolate the
// traffic of a single iteration from cumulative counters.
func (a Snapshot) Sub(b Snapshot) Snapshot {
	return Snapshot{
		DMABytes:     a.DMABytes - b.DMABytes,
		DMATransfers: a.DMATransfers - b.DMATransfers,
		RegBytes:     a.RegBytes - b.RegBytes,
		RegTransfers: a.RegTransfers - b.RegTransfers,
		NetBytes:     a.NetBytes - b.NetBytes,
		NetMessages:  a.NetMessages - b.NetMessages,
		Flops:        a.Flops - b.Flops,

		DMARetries:        a.DMARetries - b.DMARetries,
		NetRetries:        a.NetRetries - b.NetRetries,
		Checkpoints:       a.Checkpoints - b.Checkpoints,
		CheckpointBytes:   a.CheckpointBytes - b.CheckpointBytes,
		Replans:           a.Replans - b.Replans,
		CheckpointSeconds: a.CheckpointSeconds - b.CheckpointSeconds,
		RestoreSeconds:    a.RestoreSeconds - b.RestoreSeconds,
		ReplanSeconds:     a.ReplanSeconds - b.ReplanSeconds,
		RedoSeconds:       a.RedoSeconds - b.RedoSeconds,
	}
}

// Add returns the element-wise sum of two snapshots.
func (a Snapshot) Add(b Snapshot) Snapshot {
	return Snapshot{
		DMABytes:     a.DMABytes + b.DMABytes,
		DMATransfers: a.DMATransfers + b.DMATransfers,
		RegBytes:     a.RegBytes + b.RegBytes,
		RegTransfers: a.RegTransfers + b.RegTransfers,
		NetBytes:     a.NetBytes + b.NetBytes,
		NetMessages:  a.NetMessages + b.NetMessages,
		Flops:        a.Flops + b.Flops,

		DMARetries:        a.DMARetries + b.DMARetries,
		NetRetries:        a.NetRetries + b.NetRetries,
		Checkpoints:       a.Checkpoints + b.Checkpoints,
		CheckpointBytes:   a.CheckpointBytes + b.CheckpointBytes,
		Replans:           a.Replans + b.Replans,
		CheckpointSeconds: a.CheckpointSeconds + b.CheckpointSeconds,
		RestoreSeconds:    a.RestoreSeconds + b.RestoreSeconds,
		ReplanSeconds:     a.ReplanSeconds + b.ReplanSeconds,
		RedoSeconds:       a.RedoSeconds + b.RedoSeconds,
	}
}

// HasRecovery reports whether any fault-recovery activity was
// recorded.
func (a Snapshot) HasRecovery() bool {
	if a.DMARetries != 0 || a.NetRetries != 0 || a.Checkpoints != 0 || a.Replans != 0 {
		return true
	}
	//swlint:ignore float-eq -- the seconds counters start at exactly zero and only ever accumulate; any recorded cost compares unequal
	return a.CheckpointSeconds != 0 || a.RestoreSeconds != 0 || a.ReplanSeconds != 0 || a.RedoSeconds != 0
}

// RecoveryString renders the recovery counters on one line.
func (a Snapshot) RecoveryString() string {
	return fmt.Sprintf("ckpt=%d(%s,%.6fs) restore=%.6fs replan=%d(%.6fs) redo=%.6fs retries=dma:%d,net:%d",
		a.Checkpoints, FormatBytes(a.CheckpointBytes), a.CheckpointSeconds,
		a.RestoreSeconds, a.Replans, a.ReplanSeconds, a.RedoSeconds,
		a.DMARetries, a.NetRetries)
}

// String renders a compact single-line breakdown.
func (a Snapshot) String() string {
	return fmt.Sprintf("dma=%s(%d) reg=%s(%d) net=%s(%d) flops=%s",
		FormatBytes(a.DMABytes), a.DMATransfers,
		FormatBytes(a.RegBytes), a.RegTransfers,
		FormatBytes(a.NetBytes), a.NetMessages,
		FormatCount(a.Flops))
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(n int64) string {
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

// FormatCount renders a large count with a decimal SI suffix.
func FormatCount(n int64) string {
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
