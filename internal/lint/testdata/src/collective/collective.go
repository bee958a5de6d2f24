// Package collective seeds rank-conditional communicator shapes for
// the collective-match rule: lone collectives under rank branches,
// matched Send/Recv pairs, early-exit guards and the switch-based
// stripe-gather form.
package collective

import "repro/internal/mpi"

// LoneBcast broadcasts on the root only; every other rank never enters
// the collective.
func LoneBcast(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		return bcastErr(c.Bcast(0, data, nil))
	}
	return nil
}

// PairedSendRecv is the legitimate root-gathers shape: Send on one arm
// matches Recv on the other.
func PairedSendRecv(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		_, _, err := c.Recv(1, 7)
		return err
	} else {
		return c.Send(0, 7, data, nil)
	}
}

// EarlyExitPaired sends from non-roots and returns; the tail is the
// root's arm and holds the matching Recv.
func EarlyExitPaired(c *mpi.Comm, data []float64) error {
	if c.Rank() != 0 {
		return c.Send(0, 9, data, nil)
	}
	_, _, err := c.Recv(1, 9)
	return err
}

// EarlyExitBarrier leaves the root alone in a Barrier: the non-roots
// returned before reaching it.
func EarlyExitBarrier(c *mpi.Comm) error {
	if c.Rank() != 0 {
		return nil
	}
	return c.Barrier()
}

// DerivedRank reaches the branch through a derived local, which the
// value-flow pass tracks back to Rank().
func DerivedRank(c *mpi.Comm, data []float64) error {
	pos := c.Rank() % 4
	if pos == 0 {
		err := c.AllReduceSum(data, nil)
		return err
	}
	return nil
}

// NotRankDependent branches on data, not rank: every rank takes the
// same arm and the collective stays collective.
func NotRankDependent(c *mpi.Comm, n int) error {
	if n > 0 {
		return c.Barrier()
	}
	return nil
}

// SwitchPaired is the stripe-gather shape: the root receives in one
// case, group leaders send in a sibling case.
func SwitchPaired(c *mpi.Comm, group int, data []float64) error {
	switch {
	case c.Rank() == 0:
		_, _, err := c.Recv(1, 3)
		return err
	case group == 0:
		return c.Send(0, 3, data, nil)
	}
	return nil
}

// SwitchLone reduces in one rank case with no sibling partner.
func SwitchLone(c *mpi.Comm, data []float64) error {
	switch {
	case c.Rank() == 0:
		return rowsErr(c.AllReduceRows(mpi.NewRowSums(len(data), 1)))
	default:
		return nil
	}
}

// CaseArm forks on rank directly inside a case clause: the root's
// Barrier has no partner in the code after the early exit.
func CaseArm(c *mpi.Comm, mode int) error {
	switch mode {
	case 1:
		if c.Rank() == 0 {
			return c.Barrier()
		}
	}
	return nil
}

// SelectArm forks on rank as the body of a select case.
func SelectArm(c *mpi.Comm, done <-chan struct{}) error {
	select {
	case <-done:
		if c.Rank() == 0 {
			return c.Barrier()
		}
	}
	return nil
}

// ElseIfChain broadcasts on ranks 0 and 1 only. Against rank 0's arm
// the chain enters the same Bcast on one path and none on the other (a
// reorder), and rank 1's Bcast has no partner in the code the chain's
// implicit last arm runs (a missing collective).
func ElseIfChain(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		return bcastErr(c.Bcast(0, data, nil))
	} else if c.Rank() == 1 {
		return bcastErr(c.Bcast(0, data, nil))
	}
	return nil
}

// NestedRankArm forks on rank inside a rank arm: both arms of the outer
// branch mention Barrier and Bcast, but inside it rank 0 enters only
// Barrier and ranks 1–3 only Bcast, while the other ranks enter both.
func NestedRankArm(c *mpi.Comm, data []float64) error {
	rank := c.Rank()
	if rank < 4 {
		if rank == 0 {
			return c.Barrier()
		} else {
			return bcastErr(c.Bcast(0, data, nil))
		}
	} else {
		if err := c.Barrier(); err != nil {
			return err
		}
		return bcastErr(c.Bcast(0, data, nil))
	}
}

// ThreeWayChain gives each of three rank groups its own collective.
// Every call is missing from its siblings; the last arm's call is
// missing at the chain head and at the else-if link alike, and is
// reported once.
func ThreeWayChain(c *mpi.Comm, data []float64) error {
	if c.Rank() == 0 {
		return c.Barrier()
	} else if c.Rank() == 1 {
		return bcastErr(c.Bcast(0, data, nil))
	} else {
		_, err := c.Split(0, c.Rank())
		return err
	}
}

// bcastErr keeps Bcast's error.
func bcastErr(_ []float64, _ []int64, err error) error { return err }

// rowsErr keeps AllReduceRows' error.
func rowsErr(_ *mpi.RowSums, err error) error { return err }
