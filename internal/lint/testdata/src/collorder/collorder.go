// Package collorder seeds collective-match's order shapes:
// rank-conditional arms that issue the same multiset of collectives in
// different orders (flagged as reordered; no collective in this file is
// missing) next to the order-clean patterns the rule blesses.
package collorder

import "repro/internal/mpi"

// Swapped issues Bcast then Barrier on the root and the reverse on
// every other rank: same multiset, divergent order — ranks deadlock
// pairwise inside the first divergent collective.
func Swapped(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		if _, _, err := c.Bcast(0, data, nil); err != nil { // flagged
			return err
		}
		return c.Barrier()
	} else {
		if err := c.Barrier(); err != nil {
			return err
		}
		return bcastErr(c.Bcast(0, data, nil))
	}
}

// EarlyExitSwapped: the non-root arm returns early after a Split
// then Barrier; the root's continuation runs Barrier then splits.
// The sibling arm is the code after the early exit, a CFG fact.
func EarlyExitSwapped(c *mpi.Comm, color int) error {
	if c.Rank() != 0 {
		c.Split(color, c.Rank()) // flagged
		return c.Barrier()
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	_, err := c.Split(color, 0)
	return err
}

// OptionalReduce guards the root's AllReduceSum behind a data
// condition while the other ranks reduce unconditionally: on the quiet
// path the root enters Barrier while everyone else sits in
// AllReduceSum. The multisets still agree (both arms mention
// AllReduceSum and Barrier), so collective-match stays silent; only
// the path enumeration sees the Barrier-first sequence.
func OptionalReduce(c *mpi.Comm, data []float64, verbose bool) error {
	if c.Rank() == 0 {
		if verbose {
			if err := c.AllReduceSum(data, nil); err != nil { // flagged
				return err
			}
		}
		return c.Barrier()
	}
	if err := c.AllReduceSum(data, nil); err != nil {
		return err
	}
	return c.Barrier()
}

// bcastBarrier hoists the root's protocol into a helper; its summary
// sequence is Bcast then Barrier.
func bcastBarrier(c *mpi.Comm, data []float64) error {
	if _, _, err := c.Bcast(0, data, nil); err != nil {
		return err
	}
	return c.Barrier()
}

// SameOrderHelper runs the same order inline on the root and through
// the helper elsewhere: the summary sequence matches the inline arm
// (error guards are straight-line, not forks), so the rule is silent.
func SameOrderHelper(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		if _, _, err := c.Bcast(0, data, nil); err != nil {
			return err
		}
		return c.Barrier()
	}
	return bcastBarrier(c, data)
}

// MirroredOptional forks on the same data condition in both arms; the
// per-path sequence sets match fork for fork and the rule is silent.
func MirroredOptional(c *mpi.Comm, data []float64, verbose bool) error {
	if c.Rank() == 0 {
		if verbose {
			if _, _, err := c.Bcast(0, data, nil); err != nil {
				return err
			}
		}
		return c.Barrier()
	}
	if verbose {
		if _, _, err := c.Bcast(0, data, nil); err != nil {
			return err
		}
	}
	return c.Barrier()
}

// GatherLoop: the root drains one Recv per peer while each leaf sends
// once; Send and Recv normalize to the same p2p key, so the orders
// match and the rule is silent.
func GatherLoop(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		for peer := 1; peer < 4; peer++ {
			if _, _, err := c.Recv(peer, 7); err != nil {
				return err
			}
		}
		return c.Barrier()
	}
	if err := c.Send(0, 7, data, nil); err != nil {
		return err
	}
	return c.Barrier()
}

// bcastErr keeps Bcast's error.
func bcastErr(_ []float64, _ []int64, err error) error { return err }
