package mpi

// The discrete-event (DES) World driver. The default driver runs one
// live goroutine per rank; this one runs ranks as coroutine tasks of a
// sched.Sim, so blocking points become park/wake pairs on the
// scheduler's deterministic event heap: a point-to-point receive parks
// until its packet is delivered or its peer crashes or aborts, and a
// collective parks once per call until the rendezvous completes
// (rendezvous.go). Both drivers share one wait discipline: a rank
// re-checks what it waits for under World.rvMu and only then sleeps,
// and whoever changes that state under rvMu wakes it (World.wake).
// Sleeping and waking are the only driver-specific code: the rank's
// sync.Cond on rvMu under the goroutine driver, Task.Park after
// releasing rvMu and Task.Wake at the virtual time the wait completes
// under this one. Nothing about the modelled protocol changes:
// packets, tags, timestamps, the collectives' replay and the fault
// plan's crash/straggler/degraded-link behaviour are shared code,
// which is why the two drivers are bit-identical (locked by the
// golden-parity suite and TestDriverParity*).
//
// Why bit-exactness holds. A rank's computation depends only on the
// packets it matches — identified by (src, tag), unique per
// communicator step — their timestamps, the outcomes of the
// collective calls it joins, and its own clock; never on the
// interleaving of other ranks. A collective's outcome is a pure
// function of what its members deposited and of the published failures
// of those that never arrived, whichever member computes it. The
// goroutine driver realizes one dependency-respecting interleaving
// chosen by the Go runtime, the DES driver another chosen by the event
// heap; both deliver the same packets and outcomes, so every per-rank
// float, clock and span is identical. The fault paths keep the
// property: a rank's deliveries all precede its crash/abort record
// under rvMu, and a receiver always prefers a delivered match over a
// failure report (fault.go).
//
// Why this driver scales. Mailboxes are plain slices under rvMu, so
// neither driver allocates per-pair buffers, and a collective costs
// each member one park and one wake-up at its replayed exit clock
// instead of one per protocol edge. The only per-rank costs are a
// parked goroutine (one page of stack) and a few words of wait state,
// which is what lets a 4,096-rank Figure 6(b) epoch — and 100k-rank
// collective microbenchmarks — run in-process. What the DES driver
// adds over the goroutine one is a deterministic order of execution,
// one rank at a time.

import (
	"fmt"

	"repro/internal/sched"
)

// Driver selects the World's execution engine.
type Driver int

const (
	// DriverGoroutine is the default: one live goroutine per rank,
	// each waiting on its own sync.Cond.
	DriverGoroutine Driver = iota
	// DriverSched runs ranks as coroutine tasks on a deterministic
	// discrete-event scheduler; see this file's package comment.
	DriverSched
)

// String implements fmt.Stringer.
func (d Driver) String() string {
	switch d {
	case DriverGoroutine:
		return "goroutine"
	case DriverSched:
		return "sched"
	default:
		return fmt.Sprintf("Driver(%d)", int(d))
	}
}

// SetDriver selects the execution engine for subsequent Run/RunLive
// calls. It must be called before Run, never concurrently with one;
// results are bit-identical across drivers.
func (w *World) SetDriver(d Driver) { w.driver = d }

// desWorld is the per-epoch state of the DES driver: the scheduler
// and one task per participating rank, indexed by global rank. It
// exists only while runMembersSched is executing.
type desWorld struct {
	sim   *sched.Sim
	tasks []*sched.Task
}

// runMembersSched is runMembers' epoch body under the DES driver: the
// members become scheduler tasks whose initial events fire at their
// current clocks, and one Sim.Run dispatches the whole epoch.
func (w *World) runMembersSched(id uint64, grp *group, fn func(c *Comm) error) error {
	des := &desWorld{sim: sched.New(), tasks: make([]*sched.Task, w.size)}
	w.des = des
	defer func() { w.des = nil }()

	members := grp.members
	errs := make([]error, len(members))
	for i, g := range members {
		i, g := i, g
		comm := &Comm{w: w, id: id, rank: i, size: len(members), grp: grp}
		des.tasks[g] = des.sim.Spawn(g, w.clocks[g].Now(), func(*sched.Task) {
			err := fn(comm)
			errs[i] = err
			if err != nil {
				w.abort(g, err)
			}
		})
	}
	if err := des.sim.Run(); err != nil {
		// A scheduler deadlock is a protocol bug (mismatched collective,
		// lost wake-up) — surface it with the scheduler's diagnostic
		// rather than hanging the way stuck goroutines would.
		return fmt.Errorf("mpi: sched driver: %w", err)
	}
	if w.obsRec != nil {
		st := des.sim.Stats()
		w.obsRec.AddCounter("sched:dispatches", st.Dispatches)
		w.obsRec.AddCounter("sched:parks", st.Parks)
		w.obsRec.AddCounter("sched:wakes", st.Wakes)
		w.obsRec.MaxCounter("sched:max_queue_depth", uint64(st.MaxQueue))
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", members[i], err)
		}
	}
	return nil
}
