// Package mpi implements the message-passing substrate of the
// simulator: the role MPI plays on the real Sunway TaihuLight. Ranks
// are core groups (each CG's managing processing element drives the
// network), point-to-point messages really move data between rank
// goroutines, and collectives are built from point-to-point messages
// with the classic binomial-tree and dissemination algorithms so that
// message counts, volumes and the emergent critical path match what a
// real MPI library would produce on the two-level fat tree.
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

	// inbox channels exist only under the goroutine driver and are
	// allocated lazily on its first epoch: each holds 4·size+16 packet
	// slots, which at DES scale (thousands of ranks) would dominate
	// memory for no benefit — the DES driver deposits into held
	// directly.
	inbox []chan packet
	held  [][]packet // per-rank out-of-order buffer, owned by the rank goroutine/task

	commIDs sync.Mutex
	nextID  uint64 // guarded by commIDs

	// splits holds the partition of every Split in progress, keyed by
	// its gathered table: all members hold the broadcast's one copy of
	// it, so sibling splits never share a key. The first member to
	// arrive derives the partition and the last to read it deletes it;
	// runMembers starts every epoch with an empty map, dropping any a
	// failed epoch left behind.
	splitMu sync.Mutex
	splits  map[*int64]*partition // guarded by splitMu

	clocks []*vclock.Clock

	// obsUnits[g] is rank g's span unit, nil when unobserved. Installed
	// before Run and only read by the rank's own goroutine afterwards.
	// obsRec is the recorder they belong to, kept so the DES driver can
	// fold its scheduler counters into the run's profile.
	obsUnits []*obs.Unit
	obsRec   *obs.Recorder

	// Fault state (see fault.go). crashCh[g] is closed by rank g's own
	// goroutine when its scheduled fail-stop manifests; crashedAt[g] is
	// written before the close and read only by goroutines that
	// observed the close (channel happens-before), so neither needs a
	// mutex. aborted/abortFail are the per-epoch abort channels,
	// reallocated at the start of every Run with the same publication
	// discipline.
	inj       *fault.Injector
	netAt     *netmodel.Model // degraded-link view of net; nil without faults
	crashCh   []chan struct{}
	crashedAt []float64
	aborted   []chan struct{}
	abortFail []*RankFailure
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

// ResetClocks zeroes all rank clocks between measured iterations.
func (w *World) ResetClocks() {
	for _, c := range w.clocks {
		c.Reset()
	}
}

// Run executes fn concurrently on every rank and blocks until all
// return. The first non-nil error (lowest rank) is returned. Run may
// be called repeatedly on the same world; clocks persist across calls
// unless ResetClocks is used.
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

// runMembers is the shared epoch driver of Run and RunLive: it clears
// stale packets (messages addressed to ranks that crashed or aborted
// in a previous epoch are dead letters), arms fresh abort channels,
// then hands the epoch to the selected driver, which runs fn on each
// member and publishes each member's failure to late-blocking peers.
func (w *World) runMembers(id uint64, members []int, fn func(c *Comm) error) error {
	for g := range w.inbox {
		if w.inbox[g] != nil {
		drain:
			for {
				//swlint:ignore goroutine-purity -- one case plus default drains dead letters whose content is discarded
				select {
				case <-w.inbox[g]:
				default:
					break drain
				}
			}
		}
		w.held[g] = nil
	}
	w.aborted = make([]chan struct{}, w.size)
	for g := range w.aborted {
		w.aborted[g] = make(chan struct{})
	}
	w.abortFail = make([]*RankFailure, w.size)
	w.splitMu.Lock()
	w.splits = make(map[*int64]*partition)
	w.splitMu.Unlock()
	if w.driver == DriverSched {
		return w.runMembersSched(id, members, fn)
	}
	return w.runMembersGoroutine(id, members, fn)
}

// runMembersGoroutine is runMembers' epoch body under the default
// driver: one live goroutine per member, packets through the buffered
// inbox channels.
func (w *World) runMembersGoroutine(id uint64, members []int, fn func(c *Comm) error) error {
	if w.inbox[0] == nil {
		for g := range w.inbox {
			w.inbox[g] = make(chan packet, 4*w.size+16)
		}
	}
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, g := range members {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			comm := &Comm{w: w, id: id, rank: i, size: len(members), members: members}
			err := fn(comm)
			errs[i] = err
			if err != nil {
				// Publish the failure before closing: peers blocked on
				// this rank observe the close and adopt the root cause
				// instead of deadlocking.
				w.abortFail[g] = w.abortFailureFor(g, err, w.clocks[g].Now())
				close(w.aborted[g])
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
	w       *World
	id      uint64
	rank    int   // rank within this communicator
	size    int   // communicator size
	members []int // communicator rank -> global rank
	seq     uint64
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Global returns the caller's global (world) rank.
func (c *Comm) Global() int { return c.members[c.rank] }

// CG returns the global core-group index this rank is placed on.
func (c *Comm) CG() int { return c.w.cgOf[c.Global()] }

// Clock returns the rank's virtual clock. Engines advance it directly
// for local compute and DMA work.
func (c *Comm) Clock() *vclock.Clock { return c.w.clocks[c.Global()] }

// Stats returns the world's trace sink (possibly nil).
func (c *Comm) Stats() *trace.Stats { return c.w.stats }

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

// nextTag mints the tag for the next collective operation (or the
// next step of a multi-step collective). All ranks of a communicator
// execute the same sequence of collective steps, so their sequence
// counters agree. Tags are unique per (communicator, step): the
// communicator identity occupies the bits above the 20-bit step
// counter and user tags live in a separate namespace (bit 63).
func (c *Comm) nextTag() uint64 {
	c.seq++
	return c.id<<20 | (c.seq & (1<<20 - 1))
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
// peer is dropped (dead letters would otherwise fill the peer's inbox
// and block the sender forever). A non-nil fail marks the packet as
// poison. The packet carries data and ints themselves, not a copy, so
// nobody may write them after the call.
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
	srcG, dstG := c.Global(), c.members[dst]
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
			c.w.stats.AddNetRetry(1, cost)
			c.Clock().Advance(cost)
		}
	}
	p.time = c.Clock().Now() + tt
	if c.w.des != nil {
		c.w.desDeliver(dstG, p)
		return nil
	}
	//swlint:ignore goroutine-purity -- the arms are equivalent: a packet bound for a crashed or aborted rank is a dead letter either way
	select {
	case c.w.inbox[dstG] <- p:
	case <-c.w.crashChOf(dstG):
	case <-c.w.abortChOf(dstG):
	}
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
// errors here; collective internals use recvFull to fold them into an
// opState instead.
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
// as a *RankFailure with nil payloads. See the determinism argument at
// the top of fault.go: the inbox drain on crash/abort wake-up
// guarantees a real matching packet always wins over a failure report,
// independent of goroutine scheduling.
func (c *Comm) recvFull(src int, tag uint64) ([]float64, []int64, *RankFailure, error) {
	if err := c.checkSelfCrash(); err != nil {
		return nil, nil, nil, err
	}
	if src < 0 || src >= c.size {
		return nil, nil, nil, fmt.Errorf("mpi: recv source %d out of range [0,%d)", src, c.size)
	}
	srcG := c.members[src]
	me := c.Global()
	// First, scan messages held back earlier.
	if p, ok := c.takeHeld(me, srcG, tag); ok {
		return c.deliver(p)
	}
	if c.w.des != nil {
		return c.desRecvWait(me, srcG, tag)
	}
	for {
		//swlint:ignore goroutine-purity -- the failure arms drain and prefer buffered matches (drainAndTake), so arm choice never changes the delivered packet
		select {
		case p := <-c.w.inbox[me]:
			if p.src == srcG && p.tag == tag {
				return c.deliver(p)
			}
			c.w.held[me] = append(c.w.held[me], p)
		case <-c.w.crashChOf(srcG):
			if p, ok := c.drainAndTake(me, srcG, tag); ok {
				return c.deliver(p)
			}
			fail := c.w.crashFailure(srcG)
			c.Clock().AdvanceTo(fail.DetectedAt)
			return nil, nil, fail, nil
		case <-c.w.abortChOf(srcG):
			if p, ok := c.drainAndTake(me, srcG, tag); ok {
				return c.deliver(p)
			}
			fail := c.w.abortFail[srcG]
			c.Clock().AdvanceTo(fail.DetectedAt)
			return nil, nil, fail, nil
		}
	}
}

// deliver reconciles the clock with a matched packet and unwraps it.
func (c *Comm) deliver(p packet) ([]float64, []int64, *RankFailure, error) {
	c.Clock().AdvanceTo(p.time)
	if p.fail != nil {
		return nil, nil, p.fail, nil
	}
	return p.data, p.ints, nil, nil
}

// takeHeld removes and returns the held packet matching (src, tag).
func (c *Comm) takeHeld(me, srcG int, tag uint64) (packet, bool) {
	for i, h := range c.w.held[me] {
		if h.src == srcG && h.tag == tag {
			c.w.held[me] = append(c.w.held[me][:i], c.w.held[me][i+1:]...)
			return h, true
		}
	}
	return packet{}, false
}

// drainAndTake moves every already-delivered packet from the inbox to
// the held buffer, then looks for a match: when a peer's crash or
// abort channel closes, every packet it ever sent is already buffered
// (channel happens-before), so preferring a buffered match keeps the
// real-message-versus-failure decision deterministic.
func (c *Comm) drainAndTake(me, srcG int, tag uint64) (packet, bool) {
	for {
		//swlint:ignore goroutine-purity -- one case plus default deterministically empties the inbox
		select {
		case p := <-c.w.inbox[me]:
			c.w.held[me] = append(c.w.held[me], p)
		default:
			return c.takeHeld(me, srcG, tag)
		}
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

// Barrier blocks until every rank of the communicator has entered,
// using the dissemination algorithm (works for any size, log2 rounds).
// A failure anywhere poisons every survivor: dissemination is an
// allgather pattern, so the failure marker reaches all ranks.
func (c *Comm) Barrier() error {
	u, m := c.obsBegin()
	err := c.barrier()
	c.obsEnd(u, m, "mpi:barrier", 0)
	return err
}

func (c *Comm) barrier() error {
	st := &opState{}
	for step := 1; step < c.size; step *= 2 {
		tag := c.nextTag()
		to := (c.rank + step) % c.size
		from := (c.rank - step + c.size) % c.size
		if err := c.opSend(st, to, tag, nil, nil); err != nil {
			return err
		}
		if _, _, err := c.opRecv(st, from, tag); err != nil {
			return err
		}
	}
	return st.err()
}

// Bcast distributes root's data and ints to every rank using a
// binomial tree. Non-root ranks receive into the provided slices,
// which must have the same lengths as root's.
func (c *Comm) Bcast(root int, data []float64, ints []int64) error {
	u, m := c.obsBegin()
	st := &opState{}
	err := c.bcastInto(st, root, data, ints)
	if err == nil {
		err = st.err()
	}
	c.obsEnd(u, m, "mpi:bcast", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// bcastOp is the poison-aware broadcast body shared by Bcast and the
// composite collectives: a poisoned rank walks the identical tree
// forwarding the failure marker instead of the payload. data and ints
// are read on the root only, which copies them once; every other rank
// forwards the payload it received, so the root's copy serves every
// hop. bcastOp returns that shared payload, which nobody may write:
// bcastInto copies it into the caller's buffers.
func (c *Comm) bcastOp(st *opState, root int, data []float64, ints []int64) ([]float64, []int64, error) {
	if root < 0 || root >= c.size {
		return nil, nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	if rel == 0 && st.fail == nil {
		data, ints = clonePayload(data), clonePayload(ints)
	}
	// Find the receiving step: lowest set bit of rel.
	mask := 1
	for mask < c.size {
		if rel&mask != 0 {
			src := (c.rank - mask + c.size) % c.size
			d, i, err := c.opRecv(st, commRank(src), tag)
			if err != nil {
				return nil, nil, err
			}
			data, ints = d, i
			break
		}
		mask <<= 1
	}
	// Forward to children: steps above the receiving step.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < c.size && rel&(mask-1) == 0 && rel&mask == 0 {
			dst := (c.rank + mask) % c.size
			if err := c.opForward(st, dst, tag, data, ints); err != nil {
				return nil, nil, err
			}
		}
	}
	return data, ints, nil
}

// bcastInto is bcastOp for callers that keep the result in their own
// buffers: non-root ranks copy the broadcast payload into data and
// ints, whose lengths must match the root's.
func (c *Comm) bcastInto(st *opState, root int, data []float64, ints []int64) error {
	d, i, err := c.bcastOp(st, root, data, ints)
	if err != nil || st.fail != nil || c.rank == root {
		return err
	}
	if len(d) != len(data) || len(i) != len(ints) {
		return fmt.Errorf("mpi: bcast payload mismatch on rank %d", c.rank)
	}
	copy(data, d)
	copy(ints, i)
	return nil
}

// commRank is an identity helper that documents rank-space: all
// internal tree arithmetic is already in communicator rank space.
func commRank(r int) int { return r }

// Reduce combines data and ints element-wise with summation onto the
// root rank using a binomial tree. On non-root ranks the slices are
// left in an unspecified partially-combined state; callers that need
// the result everywhere use AllReduceSum.
func (c *Comm) Reduce(root int, data []float64, ints []int64) error {
	u, m := c.obsBegin()
	st := &opState{}
	err := c.reduceOp(st, root, data, ints)
	if err == nil {
		err = st.err()
	}
	c.obsEnd(u, m, "mpi:reduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// reduceOp is the poison-aware binomial reduce body. A failure in any
// subtree propagates up to the root, which is what lets the composite
// AllReduceSum distribute it to every survivor in the broadcast phase.
func (c *Comm) reduceOp(st *opState, root int, data []float64, ints []int64) error {
	if root < 0 || root >= c.size {
		return fmt.Errorf("mpi: reduce root %d out of range", root)
	}
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	for mask := 1; mask < c.size; mask <<= 1 {
		if rel&mask != 0 {
			dst := (c.rank - mask + c.size) % c.size
			return c.opSend(st, dst, tag, data, ints)
		}
		if rel+mask < c.size {
			src := (c.rank + mask) % c.size
			d, i, err := c.opRecv(st, commRank(src), tag)
			if err != nil {
				return err
			}
			if st.fail == nil {
				if len(d) != len(data) || len(i) != len(ints) {
					return fmt.Errorf("mpi: reduce payload mismatch on rank %d", c.rank)
				}
				for j, v := range d {
					data[j] += v
				}
				for j, v := range i {
					ints[j] += v
				}
			}
		}
	}
	return nil
}

// AllReduceSum sums data and ints element-wise across all ranks and
// leaves the identical result on every rank (reduce to rank 0, then
// broadcast, so results are bitwise identical everywhere). On failure
// every survivor returns the same *RankFailure: the broadcast phase
// always runs, distributing the poison the reduce phase collected.
func (c *Comm) AllReduceSum(data []float64, ints []int64) error {
	u, m := c.obsBegin()
	err := c.allReduceSum(data, ints)
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

func (c *Comm) allReduceSum(data []float64, ints []int64) error {
	if c.size == 1 {
		return c.checkSelfCrash()
	}
	st := &opState{}
	if err := c.reduceOp(st, 0, data, ints); err != nil {
		return err
	}
	if err := c.bcastInto(st, 0, data, ints); err != nil {
		return err
	}
	return st.err()
}

// AllReduceMinPairs reduces (value, payload) pairs with lexicographic
// minimum: the smallest value wins; ties break to the smallest
// payload. It is the assignment-combining operation of Algorithms 2
// and 3 (a(i) = min a(i)'), with payload carrying the centroid index.
// All ranks receive identical results.
func (c *Comm) AllReduceMinPairs(vals []float64, idxs []int64) error {
	u, m := c.obsBegin()
	err := c.allReduceMinPairs(vals, idxs)
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

func (c *Comm) allReduceMinPairs(vals []float64, idxs []int64) error {
	if len(vals) != len(idxs) {
		return fmt.Errorf("mpi: min-pairs length mismatch %d vs %d", len(vals), len(idxs))
	}
	if c.size == 1 {
		return c.checkSelfCrash()
	}
	st := &opState{}
	tag := c.nextTag()
	// Binomial reduce to rank 0 with min combiner.
	for mask := 1; mask < c.size; mask <<= 1 {
		if c.rank&mask != 0 {
			if err := c.opSend(st, c.rank-mask, tag, vals, idxs); err != nil {
				return err
			}
			break
		}
		if c.rank+mask < c.size {
			d, i, err := c.opRecv(st, c.rank+mask, tag)
			if err != nil {
				return err
			}
			if st.fail == nil {
				if len(d) != len(vals) {
					return fmt.Errorf("mpi: min-pairs payload mismatch on rank %d", c.rank)
				}
				for j := range vals {
					if MinPairLess(d[j], i[j], vals[j], idxs[j]) {
						vals[j], idxs[j] = d[j], i[j]
					}
				}
			}
		}
	}
	if err := c.bcastInto(st, 0, vals, idxs); err != nil {
		return err
	}
	return st.err()
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
	// The table is the broadcast's one copy, shared by every rank.
	return append(make([]int64, 0, len(all)), all...), nil
}

// allGatherInts is AllGatherInts without the private copy: every rank
// returns the same table (on one rank, contrib itself), which nobody
// may write.
func (c *Comm) allGatherInts(contrib []int64) ([]int64, error) {
	n := len(contrib)
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		return contrib, nil
	}
	st := &opState{}
	tag := c.nextTag()
	// Gather to rank 0, then broadcast. Simple and deterministic.
	var all []int64
	if c.rank == 0 {
		all = make([]int64, n*c.size)
		copy(all, contrib)
		for src := 1; src < c.size; src++ {
			_, i, err := c.opRecv(st, src, tag)
			if err != nil {
				return nil, err
			}
			if st.fail == nil {
				if len(i) != n {
					return nil, fmt.Errorf("mpi: allgather size mismatch from rank %d: %d vs %d", src, len(i), n)
				}
				copy(all[src*n:], i)
			}
		}
	} else {
		if err := c.opSend(st, 0, tag, nil, contrib); err != nil {
			return nil, err
		}
	}
	_, all, err := c.bcastOp(st, 0, nil, all)
	if err != nil {
		return nil, err
	}
	if st.fail != nil {
		return nil, st.fail
	}
	if len(all) != n*c.size {
		return nil, fmt.Errorf("mpi: allgather payload mismatch on rank %d", c.rank)
	}
	return all, nil
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

func (c *Comm) split(color, key int) (*Comm, error) {
	// Inside split's span section an allgather section would record
	// nothing, so split reads the shared table without a private copy.
	pairs, err := c.allGatherInts([]int64{int64(color), int64(key)})
	if err != nil {
		return nil, err
	}
	if pairs[2*c.rank] != int64(color) {
		return nil, fmt.Errorf("mpi: rank %d missing from its own split", c.rank)
	}
	p := c.w.partitionOf(pairs, c.members)
	g := p.group[c.rank]
	members := p.groups[g]
	// Communicator identity must agree across all members of the new
	// communicator without extra communication, and must be unique
	// across every communicator in the world. All ranks hold the same
	// gathered color table and the same (parent id, parent seq), so
	// the tuple (parent id, parent seq, index of this color among the
	// sorted distinct colors) is both agreed and collision-free.
	id := (c.id*1_000_003+c.seq)*65536 + uint64(g) + 1
	return &Comm{
		w:       c.w,
		id:      id,
		rank:    p.rank[c.rank],
		size:    len(members),
		members: members,
	}, nil
}

// partition is the outcome of one Split, a pure function of the
// gathered (color, key) table and the parent's members. It is derived
// once and read by every member, which keeps a split's host work
// linear in the communicator size.
type partition struct {
	// groups[g] holds the world ranks of the g-th smallest distinct
	// color, ordered by (key, parent rank): the new communicator's
	// members, shared by all of them.
	groups [][]int
	// group[r] is parent rank r's color index, rank[r] its rank in
	// that group.
	group, rank []int
	// unread counts the members that have not read the partition yet.
	unread int // guarded by splitMu
}

// partitionOf returns the partition of the split whose gathered table
// is pairs, deriving it for the first member and dropping it once the
// last one has read it.
func (w *World) partitionOf(pairs []int64, parent []int) *partition {
	key := &pairs[0]
	w.splitMu.Lock()
	defer w.splitMu.Unlock()
	p := w.splits[key]
	if p == nil {
		p = derivePartition(pairs, parent)
		p.unread = len(parent)
		w.splits[key] = p
	}
	p.unread--
	if p.unread == 0 {
		delete(w.splits, key)
	}
	return p
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
