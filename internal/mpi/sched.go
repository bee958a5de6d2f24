package mpi

// The discrete-event (DES) World driver. The default driver runs one
// live goroutine per rank and moves packets through buffered channels;
// this one runs ranks as coroutine tasks of a sched.Sim, so blocking
// points become park/wake pairs on the scheduler's deterministic event
// heap: a point-to-point Recv parks until its packet is deposited or
// its peer crashes or aborts, and a collective parks once per call
// until the rendezvous completes (rendezvous.go). Nothing about the
// modelled protocol changes: packets, tags, timestamps, the
// collectives' replay and the fault plan's crash/straggler/
// degraded-link behaviour are shared code, which is why the two
// drivers are bit-identical (locked by the golden-parity suite and
// TestDriverParity*).
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
// property: a rank's deposits all precede its crash/abort publication
// in virtual execution order (here simply program order under the
// scheduler's serialization), and a receiver always prefers a buffered
// match over a failure report, mirroring drainAndTake.
//
// Why this driver scales. No per-rank inbox channels (capacity
// 4·size+16 each — quadratic in world size) are ever allocated: the
// held buffers double as mailboxes because deposits happen directly
// under the scheduler's serialization. A collective costs each member
// one park and one wake-up at its replayed exit clock instead of one
// per protocol edge. The only per-rank costs are a parked goroutine
// (one page of stack) and a few words of wait state, which is what
// lets a 4,096-rank Figure 6(b) epoch — and 100k-rank collective
// microbenchmarks — run in-process.

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Driver selects the World's execution engine.
type Driver int

const (
	// DriverGoroutine is the default: one live goroutine per rank,
	// channel-based packet exchange.
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

// Driver returns the selected execution engine.
func (w *World) Driver() Driver { return w.driver }

// RunSched is Run under the discrete-event driver regardless of the
// configured one — the entry point for callers that want the DES
// engine explicitly (large-rank sweeps, microbenchmarks).
func (w *World) RunSched(fn func(c *Comm) error) error {
	prev := w.driver
	w.driver = DriverSched
	defer func() { w.driver = prev }()
	return w.Run(fn)
}

// desWorld is the per-epoch state of the DES driver: the scheduler,
// one task per participating rank, and each rank's current wait, all
// indexed by global rank. It exists only while runMembersSched is
// executing.
type desWorld struct {
	sim   *sched.Sim
	tasks []*sched.Task
	// waitSrc[g] is the global rank g's receive is waiting on, -1 when
	// g is not parked in a receive. waitTag[g] is the matching tag.
	waitSrc []int
	waitTag []uint64
}

// runMembersSched is runMembers' epoch body under the DES driver: the
// members become scheduler tasks whose initial events fire at their
// current clocks, and one Sim.Run dispatches the whole epoch.
func (w *World) runMembersSched(id uint64, grp *group, fn func(c *Comm) error) error {
	des := &desWorld{
		sim:     sched.New(),
		tasks:   make([]*sched.Task, w.size),
		waitSrc: make([]int, w.size),
		waitTag: make([]uint64, w.size),
	}
	for g := range des.waitSrc {
		des.waitSrc[g] = -1
	}
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

// desDeliver is the DES half of sendPacket's final hand-off: deposit
// straight into the destination's held buffer (its mailbox) and wake
// the destination if it is parked waiting for exactly this message.
// Packets bound for crashed or aborted ranks are dead letters, the
// same arms the goroutine driver's delivery select has.
func (w *World) desDeliver(dstG int, p packet) {
	if w.isCrashed(dstG) || w.isAborted(dstG) {
		return
	}
	w.held[dstG] = append(w.held[dstG], p)
	des := w.des
	if des.waitSrc[dstG] == p.src && des.waitTag[dstG] == p.tag {
		// The receive completes at max(receiver clock, packet time);
		// scheduling the wake-up there keeps the event heap's order
		// aligned with virtual time.
		des.tasks[dstG].Wake(math.Max(p.time, w.clocks[dstG].Now()))
	}
}

// desRecvWait is the DES half of recvFull's blocking loop: park until
// a matching deposit, the peer's crash, or its abort wakes us. The
// checks mirror the goroutine driver's select arms, with held-buffer
// matches taking priority over failure reports (the drainAndTake
// discipline) — under the scheduler the sender's deposits are ordered
// before its crash/abort publication, so the preference is exact.
func (c *Comm) desRecvWait(me, srcG int, tag uint64) ([]float64, []int64, *RankFailure, error) {
	w := c.w
	des := w.des
	self := des.tasks[me]
	for {
		if p, ok := c.takeHeld(me, srcG, tag); ok {
			return c.deliver(p)
		}
		if w.isCrashed(srcG) {
			fail := w.crashFailure(srcG)
			c.Clock().AdvanceTo(fail.DetectedAt)
			return nil, nil, fail, nil
		}
		if w.isAborted(srcG) {
			fail := w.abortFail[srcG]
			c.Clock().AdvanceTo(fail.DetectedAt)
			return nil, nil, fail, nil
		}
		des.waitSrc[me], des.waitTag[me] = srcG, tag
		self.Park()
		des.waitSrc[me] = -1
	}
}

// desWakeWaitersOn wakes every rank parked in a receive on the given
// global rank, at the failure's detection time reconciled with each
// waiter's own clock. Deposit wake-ups are targeted (desDeliver); this
// is the failure path, where the waiters re-check and observe the
// crash or abort.
func (w *World) desWakeWaitersOn(src int, detectedAt float64) {
	des := w.des
	if des == nil {
		return
	}
	for g, s := range des.waitSrc {
		if s == src {
			des.tasks[g].Wake(math.Max(detectedAt, w.clocks[g].Now()))
		}
	}
}

// isAborted reports whether a global rank's callback has aborted this
// epoch. Like isCrashed it is a closed-channel probe, so goroutine
// and DES code paths share one publication discipline.
func (w *World) isAborted(g int) bool {
	if w.aborted == nil {
		return false
	}
	//swlint:ignore goroutine-purity -- one case plus default is a deterministic closed-channel probe
	select {
	case <-w.aborted[g]:
		return true
	default:
		return false
	}
}
