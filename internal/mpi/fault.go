package mpi

// Fault machinery of the message-passing substrate. The model is
// fail-stop at message boundaries: a rank whose fault plan schedules a
// crash executes normally until its virtual clock reaches the crash
// time, then stops responding at its next send or receive — the
// granularity at which a real MPI job observes a dead peer. Peers
// detect the failure through a modelled heartbeat: a receive posted
// against a crashed rank completes at crash time plus the plan's
// heartbeat timeout with a typed *RankFailure error instead of
// deadlocking.
//
// Determinism. Whether a point-to-point receive sees a real message or
// a failure is a pure function of the virtual execution, not of
// goroutine scheduling: a crashing rank appends all its packets to
// their mailboxes before it records its crash, each under World.rvMu,
// so a receiver that sees the crash under rvMu already has every
// packet the dead rank ever sent in its mailbox (the mutex orders the
// appends before the record). The receiver prefers a real matching
// packet; only when none exists does it report the failure, and it
// reports a crashed peer as crashed even when the peer's abort is
// visible too.
//
// Collectives run as one rendezvous per call (rendezvous.go), and the
// replay keeps the point-to-point protocol's failure semantics edge by
// edge. A member fail-stops at the first message boundary at which its
// clock has reached its crash time, or when a message exhausts its
// retries, and sends nothing after that. A member that discovers a
// failure — a packet its peer never sent, or a poison packet — keeps
// walking the identical communication pattern with poison-marked
// packets, so every survivor's clock, traffic and error are what the
// packets would have produced. A member that never arrives because it
// crashed or its callback returned an error is replaced on every edge
// by its crash report, or by the failure its abort published; its
// notice completes the call when it was the last member missing.
// Because a rank decides its own death and publishes it before its
// notice, the replay never has to guess which of the two applies.

import (
	"errors"
	"fmt"

	"repro/internal/fault"
)

// ErrRankFailed identifies a communication that failed because a peer
// rank crashed; errors.Is(err, ErrRankFailed) matches it through
// wrapping.
var ErrRankFailed = errors.New("mpi: rank failed")

// RankFailure describes a detected peer failure: which rank died,
// when, and when the heartbeat detector reported it (the virtual time
// the observing rank's clock is advanced to).
type RankFailure struct {
	// Rank is the failed world rank; CG its core group.
	Rank, CG int
	// CrashedAt is the virtual time of the failure.
	CrashedAt float64
	// DetectedAt is CrashedAt plus the heartbeat timeout.
	DetectedAt float64
}

// Error implements error.
func (f *RankFailure) Error() string {
	return fmt.Sprintf("mpi: rank %d (CG %d) failed at t=%.9fs, detected at t=%.9fs",
		f.Rank, f.CG, f.CrashedAt, f.DetectedAt)
}

// Is matches ErrRankFailed.
func (f *RankFailure) Is(target error) bool { return target == ErrRankFailed }

// ErrCrashed identifies the error a rank's own callback receives when
// the fault plan fail-stops it: the rank must unwind, it is dead.
var ErrCrashed = errors.New("mpi: rank crashed (fail-stop)")

// CrashStop is the self-crash error: the fault plan scheduled this
// rank's fail-stop and its clock has reached the crash time.
type CrashStop struct {
	Rank, CG int
	At       float64
}

// Error implements error.
func (c *CrashStop) Error() string {
	return fmt.Sprintf("mpi: rank %d (CG %d) fail-stop at t=%.9fs", c.Rank, c.CG, c.At)
}

// Is matches ErrCrashed.
func (c *CrashStop) Is(target error) bool { return target == ErrCrashed }

// SetFaults installs a fault injector on the world; it must be called
// before Run. Passing nil removes fault injection. Message transfer
// times then honour the injector's degraded-link windows, transient
// message faults are retried with backoff, and scheduled crashes
// fail-stop their ranks.
func (w *World) SetFaults(inj *fault.Injector) {
	w.inj = inj
	if inj == nil {
		w.netAt, w.crashed, w.retrySecs = nil, nil, nil
		return
	}
	w.netAt = w.net.Degraded(inj)
	w.crashed = make([]*RankFailure, w.size)
	w.retrySecs = make([]float64, w.size)
}

// markCrashed records the fail-stop of a global rank at virtual time
// at. Only the owning rank calls it — a rank decides its own death —
// and exactly once.
func (w *World) markCrashed(g int, at float64) {
	w.noteGone(g, w.crashed, &RankFailure{
		Rank:       g,
		CG:         w.cgOf[g],
		CrashedAt:  at,
		DetectedAt: at + w.inj.HeartbeatTimeout(),
	})
}

// isCrashed reports whether a global rank has fail-stopped.
func (w *World) isCrashed(g int) bool { return w.crashed != nil && w.crashed[g] != nil }

// Failed returns the sorted global ranks that have fail-stopped so
// far. It is meaningful between Run calls (the end of Run orders every
// rank's writes before the caller's reads).
func (w *World) Failed() []int {
	var out []int
	for g := 0; g < w.size; g++ {
		if w.isCrashed(g) {
			out = append(out, g)
		}
	}
	return out
}

// Alive returns the sorted global ranks that have not fail-stopped.
func (w *World) Alive() []int {
	out := make([]int, 0, w.size)
	for g := 0; g < w.size; g++ {
		if !w.isCrashed(g) {
			out = append(out, g)
		}
	}
	return out
}

// AddRetrySeconds adds s virtual seconds the rank spent retrying a
// transient fault outside the message layer, a DMA transfer say, to
// its retry time. It needs a fault injector (SetFaults).
func (c *Comm) AddRetrySeconds(s float64) { c.w.retrySecs[c.Global()] += s }

// RetrySeconds returns the virtual time the ranks spent retrying
// transient faults: each rank's own time, summed in rank order, so
// the total does not depend on the order in which ranks retried. Like
// Failed, it is meaningful between Run calls.
func (w *World) RetrySeconds() float64 {
	total := 0.0
	for _, s := range w.retrySecs {
		total += s
	}
	return total
}

// CheckFailure reports the rank's own scheduled fail-stop once its
// clock has reached the crash time: engines call it from compute loops
// to crash promptly instead of at the next message boundary. The
// returned error wraps ErrCrashed; nil means the rank is alive.
func (c *Comm) CheckFailure() error { return c.checkSelfCrash() }

// checkSelfCrash fail-stops the calling rank when its virtual clock
// has crossed the scheduled crash time of its core group. Called at
// every message boundary.
func (c *Comm) checkSelfCrash() error {
	w := c.w
	if w.inj == nil {
		return nil
	}
	g := c.Global()
	if w.isCrashed(g) {
		return &CrashStop{Rank: g, CG: w.cgOf[g], At: w.crashed[g].CrashedAt}
	}
	at, ok := w.inj.CrashTime(w.cgOf[g])
	if !ok || c.Clock().Now() < at {
		return nil
	}
	w.markCrashed(g, at)
	return &CrashStop{Rank: g, CG: w.cgOf[g], At: at}
}

// abortFailureFor derives the failure a peer should observe when a
// rank's callback returns err: the root-cause RankFailure when one is
// wrapped, the crash report for a fail-stop, and a synthetic failure
// stamped with the rank's own clock for any other error (so bugs
// surface as errors on every rank instead of deadlocks).
func (w *World) abortFailureFor(g int, err error, now float64) *RankFailure {
	var rf *RankFailure
	if errors.As(err, &rf) {
		return rf
	}
	var cs *CrashStop
	if errors.As(err, &cs) {
		det := cs.At
		if w.inj != nil {
			det += w.inj.HeartbeatTimeout()
		}
		return &RankFailure{Rank: cs.Rank, CG: cs.CG, CrashedAt: cs.At, DetectedAt: det}
	}
	return &RankFailure{Rank: g, CG: w.cgOf[g], CrashedAt: now, DetectedAt: now}
}

// opState accumulates the failure one member discovers during one
// collective. A poisoned member keeps executing the identical protocol
// edges, sending poison instead of data.
type opState struct {
	fail *RankFailure
}

// merge folds a newly observed failure in, keeping a deterministic
// winner (earliest crash, ties to the lowest rank) so every rank that
// observes the same failure set reports the same root cause.
func (st *opState) merge(f *RankFailure) {
	if f == nil {
		return
	}
	if st.fail == nil {
		st.fail = f
		return
	}
	//swlint:ignore float-eq -- exact crash-time tie breaks to the lowest rank for a deterministic root cause
	if f.CrashedAt < st.fail.CrashedAt || (f.CrashedAt == st.fail.CrashedAt && f.Rank < st.fail.Rank) {
		st.fail = f
	}
}

// err returns the collective's outcome: nil, or the merged failure.
func (st *opState) err() error {
	if st.fail == nil {
		return nil
	}
	return st.fail
}
