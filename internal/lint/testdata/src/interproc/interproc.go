// Package interproc seeds helper-wrapped communicator shapes that only
// the function summaries make visible: collectives behind one and
// two levels of helpers, rank dependence through helper returns,
// impure helpers under map iteration and goroutines, and call-site
// suppression of summary-propagated findings.
package interproc

import "repro/internal/mpi"

var hits int

// broadcast wraps the collective one call deep.
func broadcast(c *mpi.Comm, data []float64) error {
	return bcastErr(c.Bcast(0, data, nil))
}

// reduceHelper wraps AllReduceSum; sumAll wraps it again (two deep).
func reduceHelper(c *mpi.Comm, data []float64) error {
	return c.AllReduceSum(data, nil)
}

func sumAll(c *mpi.Comm, data []float64) error {
	return reduceHelper(c, data)
}

// myRank derives a basic value from the calling rank.
func myRank(c *mpi.Comm) int {
	return c.Rank()
}

// bump writes package state: impure under goroutines and map ranges.
func bump() {
	hits++
}

// RootOnlyBroadcast reaches Bcast through the helper on the root arm
// only: flagged with the call chain.
func RootOnlyBroadcast(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		return broadcast(c, data)
	}
	return nil
}

// DeepLoneSum reaches AllReduceSum two helpers deep on one arm.
func DeepLoneSum(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		return sumAll(c, data)
	}
	return nil
}

// HelperRankGate branches on a helper-returned rank: the Barrier under
// it is lone; the condition is rank-dependent through the summary.
func HelperRankGate(c *mpi.Comm) error {
	if myRank(c) == 0 {
		return c.Barrier()
	}
	return nil
}

// BothArms enters the same collective on both arms, one wrapped and
// one direct: matched, no finding.
func BothArms(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		return broadcast(c, data)
	}
	return bcastErr(c.Bcast(0, data, nil))
}

// SuppressedAsym documents a deliberately asymmetric protocol at the
// call site; the suppression must silence the summary-propagated
// finding even though the collective lives in the callee.
func SuppressedAsym(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		//swlint:ignore collective-match -- root-only notify; leaves drain via timeout
		return broadcast(c, data)
	}
	return nil
}

// RangeHelperEffect runs an impure helper under map iteration: the
// iteration order reaches package state through the call.
func RangeHelperEffect(m map[string]int) {
	for k := range m {
		_ = k
		bump()
	}
}

// GoImpureHelper spawns a helper that writes package state.
func GoImpureHelper() {
	go bump()
}

// bcastErr keeps Bcast's error.
func bcastErr(_ []float64, _ []int64, err error) error { return err }
