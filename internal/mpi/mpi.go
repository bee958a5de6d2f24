// Package mpi implements the message-passing substrate of the
// simulator: the role MPI plays on the real Sunway TaihuLight. Ranks
// are core groups (each CG's managing processing element drives the
// network) and point-to-point messages really move data between rank
// goroutines. The collectives model the classic binomial-tree,
// dissemination, ring and gather algorithms message by message, so
// that message counts, volumes and the emergent critical path match
// what a real MPI library would produce on the two-level fat tree, but
// the host runs each call as one rendezvous of the communicator's
// members that combines the payloads once and replays every member's
// messages (rendezvous.go).
//
// Virtual time: every rank owns a vclock.Clock. A message carries the
// sender's clock at completion of the send; the receive completes at
// max(receiver's clock, send time + modelled transfer time), where the
// transfer time comes from the netmodel (intra- vs inter-supernode
// bandwidth and latency).
package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// packet is one message in flight between ranks.
type packet struct {
	src  int // global rank
	tag  uint64
	time float64 // sender clock at send completion
	data []float64
	ints []int64
	fail *RankFailure // non-nil marks a poison packet carrying a failure
}

// World owns the rank set of one simulated job.
type World struct {
	spec  *machine.Spec
	net   *netmodel.Model
	stats *trace.Stats
	size  int
	cgOf  []int // world rank -> global CG index

	// driver selects the execution engine (see sched.go); des is the
	// DES driver's per-epoch state, non-nil only while a sched epoch is
	// dispatching.
	driver Driver
	des    *desWorld

	commIDs sync.Mutex
	nextID  uint64 // guarded by commIDs

	// rvMu orders every meeting of ranks: the collective rendezvous
	// (rendezvous.go), point-to-point delivery, and the notices of
	// ranks that crash or abort. A rank that must wait re-checks what
	// it waits for under rvMu and sleeps on its own cond (the goroutine
	// driver) or parks its task (DES); whoever changes that state wakes
	// it (wake). runMembers starts every epoch with empty mailboxes and
	// no open call, dropping what a failed epoch left behind.
	rvMu    sync.Mutex
	calls   []*call     // guarded by rvMu: the calls still waiting for members
	held    [][]packet  // guarded by rvMu: each rank's delivered, unmatched packets
	waitSrc []int       // guarded by rvMu: the world rank a rank's receive waits on, -1 when none
	waitTag []uint64    // guarded by rvMu: the tag it waits for
	conds   []sync.Cond // on rvMu: each rank's wait under the goroutine driver

	clocks []*vclock.Clock

	// obsUnits[g] is rank g's span unit, nil when unobserved. Installed
	// before Run and only read by the rank's own goroutine afterwards.
	// obsRec is the recorder they belong to, kept so the DES driver can
	// fold its scheduler counters into the run's profile.
	obsUnits []*obs.Unit
	obsRec   *obs.Recorder

	// Fault state (see fault.go). crashed[g] is rank g's crash report
	// once it has fail-stopped, for the rest of the world's life;
	// abortFail[g] is the failure rank g's callback published this
	// epoch. Both are written under rvMu, by rank g alone, and read
	// under rvMu, by rank g itself, or after the notice that completes
	// a call. retrySecs[g] is the virtual time rank g spent retrying
	// transient faults, summed in its own program order.
	inj       *fault.Injector
	netAt     *netmodel.Model // degraded-link view of net; nil without faults
	crashed   []*RankFailure
	abortFail []*RankFailure
	retrySecs []float64
}

// NewWorld creates a world of size ranks over the deployment spec.
// Rank r is placed on global CG index r, so consecutive ranks are
// physically adjacent (fill nodes, then supernodes), matching the
// paper's placement advice. size must not exceed the number of CGs of
// the deployment. The stats sink may be nil.
func NewWorld(spec *machine.Spec, stats *trace.Stats, size int) (*World, error) {
	return NewWorldPlaced(spec, stats, size, CompactPlacement)
}

// MustWorld is NewWorld that panics on error.
func MustWorld(spec *machine.Spec, stats *trace.Stats, size int) *World {
	w, err := NewWorld(spec, stats, size)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Spec returns the deployment spec.
func (w *World) Spec() *machine.Spec { return w.spec }

// MaxTime returns the latest virtual clock across ranks — the job's
// completion time after Run returns.
func (w *World) MaxTime() float64 { return vclock.MaxTime(w.clocks...) }

// SetObserver attaches a span recorder: rank g records its collectives
// and point-to-point operations as spans on unit "rank/<g>", stamped
// with the rank's virtual clock. Install it before Run, never
// concurrently with one; a nil recorder leaves the world unobserved.
func (w *World) SetObserver(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	w.obsRec = rec
	w.obsUnits = make([]*obs.Unit, w.size)
	for g := range w.obsUnits {
		w.obsUnits[g] = rec.Unit(fmt.Sprintf("rank/%d", g))
	}
}

// Run executes fn concurrently on every rank and blocks until all
// return. The first non-nil error (lowest rank) is returned. Run may
// be called repeatedly on the same world; clocks persist across calls.
func (w *World) Run(fn func(c *Comm) error) error {
	members := make([]int, w.size)
	for i := range members {
		members[i] = i
	}
	return w.runMembers(0, members, fn)
}

// RunLive executes fn on every surviving rank over a communicator of
// exactly the live ranks, ordered by world rank — the bootstrap
// communicator a recovery epoch re-plans over. Crashed ranks do not
// participate at all. Like Run, the first non-nil error by lowest
// participating rank is returned.
func (w *World) RunLive(fn func(c *Comm) error) error {
	members := w.Alive()
	if len(members) == 0 {
		return fmt.Errorf("mpi: no surviving ranks: %w", ErrRankFailed)
	}
	return w.runMembers(w.newCommID(), members, fn)
}

// runMembers is the shared epoch driver of Run and RunLive: it drops
// stale packets (messages addressed to ranks that crashed or aborted
// in a previous epoch are dead letters), the previous epoch's aborts
// and open calls, then hands the epoch to the selected driver, which
// runs fn on each member and publishes each member's failure to its
// waiting peers.
func (w *World) runMembers(id uint64, members []int, fn func(c *Comm) error) error {
	w.rvMu.Lock()
	clear(w.held)
	for g := range w.waitSrc {
		w.waitSrc[g] = -1
	}
	clear(w.abortFail)
	w.calls = nil
	w.rvMu.Unlock()
	grp := &group{members: members}
	if w.driver == DriverSched {
		return w.runMembersSched(id, grp, fn)
	}
	return w.runMembersGoroutine(id, grp, fn)
}

// abort publishes the failure of a rank whose callback returned err:
// peers blocked on it adopt the root cause instead of deadlocking.
func (w *World) abort(g int, err error) {
	w.noteGone(g, w.abortFail, w.abortFailureFor(g, err, w.clocks[g].Now()))
}

// runMembersGoroutine is runMembers' epoch body under the default
// driver: one live goroutine per member.
func (w *World) runMembersGoroutine(id uint64, grp *group, fn func(c *Comm) error) error {
	members := grp.members
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, g := range members {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			comm := &Comm{w: w, id: id, rank: i, size: len(members), grp: grp}
			err := fn(comm)
			errs[i] = err
			if err != nil {
				w.abort(g, err)
			}
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("mpi: rank %d: %w", members[i], err)
		}
	}
	return nil
}

// wake rouses rank g from its wait after the caller, holding rvMu,
// changed what g waits for. Under DES the task resumes at virtual time
// at or at g's clock, whichever is later: where the wait completes,
// which keeps the event heap's order aligned with virtual time.
func (w *World) wake(g int, at float64) {
	if des := w.des; des != nil {
		des.tasks[g].Wake(math.Max(at, w.clocks[g].Now()))
		return
	}
	w.conds[g].Signal()
}

// newCommID allocates a distinct communicator identity for tag
// namespacing. The world communicator is ID 0.
func (w *World) newCommID() uint64 {
	w.commIDs.Lock()
	defer w.commIDs.Unlock()
	w.nextID++
	return w.nextID
}

// Comm is one rank's handle on a communicator. The world communicator
// is passed to Run's callback; sub-communicators come from Split.
// A Comm is confined to its rank's goroutine.
type Comm struct {
	w    *World
	id   uint64
	rank int    // rank within this communicator
	size int    // communicator size
	grp  *group // what the members share: their world ranks, the rendezvous
	seq  uint64
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Global returns the caller's global (world) rank.
func (c *Comm) Global() int { return c.grp.members[c.rank] }

// CG returns the global core-group index this rank is placed on.
func (c *Comm) CG() int { return c.w.cgOf[c.Global()] }

// Clock returns the rank's virtual clock. Engines advance it directly
// for local compute and DMA work.
func (c *Comm) Clock() *vclock.Clock { return c.w.clocks[c.Global()] }

// Obs returns the rank's span unit, nil when the world is unobserved.
// Engines record their local compute and DMA phases on it so the
// rank's timeline tiles completely.
func (c *Comm) Obs() *obs.Unit {
	if c.w.obsUnits == nil {
		return nil
	}
	return c.w.obsUnits[c.Global()]
}

// obsBegin opens a span section on the rank's unit at the current
// virtual time. Composite collectives nest sections; the depth guard
// in obs makes the outermost one claim the whole range.
func (c *Comm) obsBegin() (*obs.Unit, obs.Mark) {
	u := c.Obs()
	if u == nil {
		return nil, obs.Mark{}
	}
	return u, u.Begin(c.Clock().Now())
}

// obsEnd closes the section as one span of the given kind, ending at
// the rank's current virtual time.
func (c *Comm) obsEnd(u *obs.Unit, m obs.Mark, kind string, bytes int64) {
	if u == nil {
		return
	}
	u.End(m, kind, c.Clock().Now(), bytes, 0)
}

// collectiveTag is the tag of a communicator's step-th collective
// step. All ranks of a communicator execute the same sequence of
// collective steps, so their step counters agree. Tags are unique per
// (communicator, step): the communicator identity occupies the bits
// above the 20-bit step counter and user tags live in a separate
// namespace (bit 63). The fault plan's message rolls and Split's
// communicator ids read them.
func collectiveTag(id, step uint64) uint64 {
	return id<<20 | (step & (1<<20 - 1))
}

// send transmits payloads to communicator rank dst under tag.
// The payloads are copied; the caller may reuse its buffers.
func (c *Comm) send(dst int, tag uint64, data []float64, ints []int64) error {
	return c.sendPacket(dst, tag, clonePayload(data), clonePayload(ints), nil)
}

// clonePayload copies s for a packet; an empty payload travels as nil.
func clonePayload[T float64 | int64](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// sendPacket is send plus the fault machinery: the sender fail-stops
// at this boundary if its crash time has passed, transient message
// faults are retried with the wasted wire time and a doubling backoff
// charged to the sender's clock, and delivery to a crashed or aborted
// peer is dropped (nobody would ever take the dead letter). A
// delivered packet joins the destination's mailbox and wakes the
// destination if its receive waits for exactly this packet. A non-nil
// fail marks the packet as poison. The packet carries data and ints
// themselves, not a copy, so nobody may write them after the call.
func (c *Comm) sendPacket(dst int, tag uint64, data []float64, ints []int64, fail *RankFailure) error {
	if err := c.checkSelfCrash(); err != nil {
		return err
	}
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("mpi: send destination %d out of range [0,%d)", dst, c.size)
	}
	if dst == c.rank {
		return fmt.Errorf("mpi: rank %d sending to itself", c.rank)
	}
	srcG, dstG := c.Global(), c.grp.members[dst]
	bytes := (len(data) + len(ints)) * ldm.ElemBytes
	c.w.stats.AddNet(int64(bytes))
	// The sender is busy for the injection duration; the wire time is
	// charged on the receive side through the timestamp.
	p := packet{src: srcG, tag: tag, data: data, ints: ints, fail: fail}
	srcCG, dstCG := c.w.cgOf[srcG], c.w.cgOf[dstG]
	tt, err := c.w.transferTime(srcCG, dstCG, bytes, c.Clock().Now())
	if err != nil {
		return err
	}
	if inj := c.w.inj; inj != nil {
		for attempt := 0; inj.MsgFault(srcCG, dstCG, tag, c.Clock().Now(), attempt); attempt++ {
			if attempt >= inj.MaxRetries() {
				// A rank that cannot get a message through is dead to
				// its peers: fail-stop so the heartbeat detector takes
				// over instead of leaving the protocol half-run.
				at := c.Clock().Now()
				c.w.markCrashed(srcG, at)
				return fmt.Errorf("mpi: rank %d message to rank %d (tag %#x) exhausted %d retries at t=%.9fs: %w",
					srcG, dstG, tag, inj.MaxRetries(), at, fault.ErrLinkFailed)
			}
			cost := tt + inj.Backoff(attempt+1)
			c.w.retrySecs[srcG] += cost
			c.Clock().Advance(cost)
		}
	}
	p.time = c.Clock().Now() + tt
	w := c.w
	w.rvMu.Lock()
	if !w.isCrashed(dstG) && w.abortFail[dstG] == nil {
		w.held[dstG] = append(w.held[dstG], p)
		if w.waitSrc[dstG] == srcG && w.waitTag[dstG] == tag {
			w.wake(dstG, p.time)
		}
	}
	w.rvMu.Unlock()
	return nil
}

// transferTime routes through the degraded-link model when faults are
// installed and the plain model otherwise.
func (w *World) transferTime(srcCG, dstCG, bytes int, at float64) (float64, error) {
	if w.netAt != nil {
		return w.netAt.TransferTimeAt(srcCG, dstCG, bytes, at)
	}
	return w.net.TransferTime(srcCG, dstCG, bytes)
}

// recv blocks until the message with the given tag from communicator
// rank src arrives, reconciles the clock and returns the payloads.
// Failures (poison packets, crashed or aborted peers) surface as hard
// errors here.
func (c *Comm) recv(src int, tag uint64) ([]float64, []int64, error) {
	d, i, fail, err := c.recvFull(src, tag)
	if err != nil {
		return nil, nil, err
	}
	if fail != nil {
		return nil, nil, fail
	}
	return d, i, nil
}

// recvFull is the failure-aware receive. The hard error (last return)
// is only ever the caller's own fail-stop; a peer's failure comes back
// as a *RankFailure with nil payloads. Under rvMu the receive takes a
// matching packet from its mailbox first, then reports the source's
// crash, then its abort, and otherwise waits for one of the three.
// See the determinism argument at the top of fault.go: a real matching
// packet always wins over a failure report, and a crashed peer is
// reported as crashed even once its callback has aborted, whatever
// the interleaving of the ranks.
func (c *Comm) recvFull(src int, tag uint64) ([]float64, []int64, *RankFailure, error) {
	if err := c.checkSelfCrash(); err != nil {
		return nil, nil, nil, err
	}
	if src < 0 || src >= c.size {
		return nil, nil, nil, fmt.Errorf("mpi: recv source %d out of range [0,%d)", src, c.size)
	}
	w := c.w
	srcG, me := c.grp.members[src], c.Global()
	w.rvMu.Lock()
	for {
		for i, p := range w.held[me] {
			if p.src == srcG && p.tag == tag {
				w.held[me] = slices.Delete(w.held[me], i, i+1)
				w.rvMu.Unlock()
				c.Clock().AdvanceTo(p.time)
				if p.fail != nil {
					return nil, nil, p.fail, nil
				}
				return p.data, p.ints, nil, nil
			}
		}
		fail := w.abortFail[srcG]
		if w.isCrashed(srcG) {
			fail = w.crashed[srcG]
		}
		if fail != nil {
			w.rvMu.Unlock()
			c.Clock().AdvanceTo(fail.DetectedAt)
			return nil, nil, fail, nil
		}
		w.waitSrc[me], w.waitTag[me] = srcG, tag
		if des := w.des; des != nil {
			w.rvMu.Unlock()
			des.tasks[me].Park()
			w.rvMu.Lock()
		} else {
			w.conds[me].Wait()
		}
		w.waitSrc[me] = -1
	}
}

// Send transmits data and ints to communicator rank dst as a
// point-to-point message with a caller-chosen small tag.
func (c *Comm) Send(dst int, tag int, data []float64, ints []int64) error {
	if tag < 0 || tag >= 1<<20 {
		return fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	u, m := c.obsBegin()
	err := c.send(dst, uint64(tag)|1<<63, data, ints)
	c.obsEnd(u, m, "mpi:send", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// Recv receives the matching point-to-point message from src.
func (c *Comm) Recv(src int, tag int) ([]float64, []int64, error) {
	if tag < 0 || tag >= 1<<20 {
		return nil, nil, fmt.Errorf("mpi: user tag %d out of range", tag)
	}
	u, m := c.obsBegin()
	data, ints, err := c.recv(src, uint64(tag)|1<<63)
	c.obsEnd(u, m, "mpi:recv", int64((len(data)+len(ints))*ldm.ElemBytes))
	return data, ints, err
}

// collective runs a payload collective: a size-1 communicator only
// checks the caller's own fail-stop, larger ones meet at a rendezvous
// and settle the caller's outcome.
func (c *Comm) collective(op opKind, root int, data []float64, ints []int64) error {
	if c.size == 1 {
		return c.checkSelfCrash()
	}
	x, err := c.rendezvous(op, root, data, ints, nil)
	if err != nil {
		return err
	}
	return c.settle(x)
}

// Barrier blocks until every rank of the communicator has entered,
// modelled as the dissemination algorithm (any size, log2 rounds). A
// failure anywhere poisons every survivor: dissemination is an
// allgather pattern, so the failure marker reaches all ranks.
func (c *Comm) Barrier() error {
	u, m := c.obsBegin()
	var err error
	if c.size > 1 {
		err = c.collective(opBarrier, 0, nil, nil)
	}
	c.obsEnd(u, m, "mpi:barrier", 0)
	return err
}

// Bcast distributes root's data and ints to every rank, modelled as a
// binomial tree, and returns them: every member gets the root's own
// slices, shared read-only, so nobody may write them while a member
// may still read them. Only the root's payload is read; the other
// ranks pass nil. On error the payload is nil, and the span's bytes
// are those of the payload returned.
func (c *Comm) Bcast(root int, data []float64, ints []int64) ([]float64, []int64, error) {
	u, m := c.obsBegin()
	var err error
	switch {
	case root < 0 || root >= c.size:
		err = fmt.Errorf("mpi: bcast root %d out of range", root)
	case c.size == 1:
		c.seq++
	default:
		if c.rank != root {
			data, ints = nil, nil
		}
		var x *call
		if x, err = c.rendezvous(opBcast, root, data, ints, nil); err == nil {
			if err = c.settle(x); err == nil {
				data, ints = x.slots[root].data, x.slots[root].ints
			}
		}
	}
	if err != nil {
		data, ints = nil, nil
	}
	c.obsEnd(u, m, "mpi:bcast", int64((len(data)+len(ints))*ldm.ElemBytes))
	return data, ints, err
}

// AllReduceSum sums data and ints element-wise across all ranks and
// leaves the identical result on every rank, modelled as a binomial
// reduce to rank 0 followed by a binomial broadcast, so results are
// bitwise identical everywhere. On failure every survivor returns the
// same *RankFailure: the broadcast phase always runs, distributing the
// poison the reduce phase collected.
func (c *Comm) AllReduceSum(data []float64, ints []int64) error {
	u, m := c.obsBegin()
	err := c.collective(opAllReduce, 0, data, ints)
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// AllReduceMinPairs reduces (value, payload) pairs with lexicographic
// minimum: the smallest value wins; ties break to the smallest
// payload. It is the assignment-combining operation of Algorithms 2
// and 3 (a(i) = min a(i)'), with payload carrying the centroid index.
// All ranks receive identical results.
func (c *Comm) AllReduceMinPairs(vals []float64, idxs []int64) error {
	u, m := c.obsBegin()
	var err error
	if len(vals) != len(idxs) {
		err = fmt.Errorf("mpi: min-pairs length mismatch %d vs %d", len(vals), len(idxs))
	} else {
		err = c.collective(opMinPairs, 0, vals, idxs)
	}
	c.obsEnd(u, m, "mpi:minpairs", int64((len(vals)+len(idxs))*ldm.ElemBytes))
	return err
}

// MinPairLess reports whether the pair (v, i) orders before (bv, bi)
// in AllReduceMinPairs: a smaller value, or an equal one with a
// smaller payload. A NaN value orders before any pair with a larger
// payload, and no other value orders before a NaN. That keeps a NaN
// distance at row 0 final, as a nearest-centroid search over the whole
// matrix does. Only the candidate of the slice holding row 0 can carry
// a NaN (core.NearestSlice), so on such candidates the order is total
// and every reduction tree combines them to the same pair.
func MinPairLess(v float64, i int64, bv float64, bi int64) bool {
	//swlint:ignore float-eq -- exact-value tie breaks to the lowest index, the paper's deterministic combining order
	return v < bv || (v == bv && i < bi) || (i < bi && math.IsNaN(v))
}

// AllGatherInts gathers each rank's ints contribution and returns the
// concatenation ordered by rank, identical on every rank. All
// contributions must have the same length.
func (c *Comm) AllGatherInts(contrib []int64) ([]int64, error) {
	u, m := c.obsBegin()
	all, err := c.allGatherInts(contrib)
	c.obsEnd(u, m, "mpi:allgather", int64(len(all)*ldm.ElemBytes))
	if err != nil {
		return nil, err
	}
	// The table is the call's one copy, shared by every rank.
	return append(make([]int64, 0, len(all)), all...), nil
}

// allGatherInts is AllGatherInts without the private copy: every rank
// returns the same table (on one rank, contrib itself), which nobody
// may write. It is modelled as a gather to rank 0 followed by a
// binomial broadcast of the table.
func (c *Comm) allGatherInts(contrib []int64) ([]int64, error) {
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		return contrib, nil
	}
	x, err := c.rendezvous(opAllGather, 0, nil, contrib, nil)
	if err != nil {
		return nil, err
	}
	if err := c.settle(x); err != nil {
		return nil, err
	}
	return x.table, nil
}

// Split partitions the communicator: ranks passing equal color form a
// new communicator, ordered by (key, rank). Every rank of the parent
// must call Split. The returned Comm is ready for collectives within
// the partition.
func (c *Comm) Split(color, key int) (*Comm, error) {
	u, m := c.obsBegin()
	sub, err := c.split(color, key)
	c.obsEnd(u, m, "mpi:split", 0)
	return sub, err
}

// split gathers the (color, key) table like allGatherInts; the call's
// replay derives the partition once, with one shared group per new
// communicator.
func (c *Comm) split(color, key int) (*Comm, error) {
	pair := []int64{int64(color), int64(key)}
	var p *partition
	var subs []*group
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		p = derivePartition(pair, c.grp.members)
		subs = []*group{{members: p.groups[0]}}
	} else {
		x, err := c.rendezvous(opSplit, 0, nil, pair, nil)
		if err != nil {
			return nil, err
		}
		if err := c.settle(x); err != nil {
			return nil, err
		}
		p, subs = x.part, x.subs
	}
	g := p.group[c.rank]
	grp := subs[g]
	// Communicator identity must agree across all members of the new
	// communicator without extra communication, and must be unique
	// across every communicator in the world. All ranks hold the same
	// gathered color table and the same (parent id, parent seq), so
	// the tuple (parent id, parent seq, index of this color among the
	// sorted distinct colors) is both agreed and collision-free.
	id := (c.id*1_000_003+c.seq)*65536 + uint64(g) + 1
	return &Comm{w: c.w, id: id, rank: p.rank[c.rank], size: len(grp.members), grp: grp}, nil
}

// partition is the outcome of one Split, a pure function of the
// gathered (color, key) table and the parent's members, derived once
// per split by the call's replay.
type partition struct {
	// groups[g] holds the world ranks of the g-th smallest distinct
	// color, ordered by (key, parent rank): the new communicator's
	// members, shared by all of them.
	groups [][]int
	// group[r] is parent rank r's color index, rank[r] its rank in
	// that group.
	group, rank []int
}

// derivePartition sorts the parent ranks by (color, key, rank) once:
// each color's run of the order is then its new communicator, and the
// runs come in the order of the sorted distinct colors.
func derivePartition(pairs []int64, parent []int) *partition {
	n := len(parent)
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(pairs[2*a], pairs[2*b]); c != 0 {
			return c
		}
		if c := cmp.Compare(pairs[2*a+1], pairs[2*b+1]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	p := &partition{group: make([]int, n), rank: make([]int, n)}
	ranks := make([]int, n)
	start := 0
	for i, r := range order {
		if i > 0 && pairs[2*r] != pairs[2*order[i-1]] {
			p.groups = append(p.groups, ranks[start:i:i])
			start = i
		}
		ranks[i] = parent[r]
		p.group[r] = len(p.groups)
		p.rank[r] = i - start
	}
	p.groups = append(p.groups, ranks[start:n:n])
	return p
}
