package mpi

// One rendezvous per collective. Every collective of this package —
// Barrier, Bcast, AllReduceSum, AllReduceSumRing, AllReduceRows,
// AllReduceMinPairs and Split's allgather — runs as one
// meeting of the communicator's members instead of as point-to-point
// packets. Each member deposits its entry clock, its scheduled crash
// time and its buffers; the last member to arrive, or the crash or
// abort of the last member still missing, closes the call and replays
// the replaced algorithm once for everybody: every protocol edge in the
// order the algorithm's data dependencies impose, with sendPacket's
// clock and fault arithmetic (the same transfer time, the same
// fault.Injector rolls on the same tags, the same retries, crashes and
// poison) and with the payloads combined in place in the members' own
// buffers, as each rank would have combined them — or, for Bcast,
// AllReduceRows and Split's allgather, into one result every member
// shares read-only. Each member then applies only its own outcome: its
// clock, its traffic counters, its own fail-stop or error. The wait is
// the only driver-specific part, the same one a receive has: a
// re-check loop under World.rvMu that sleeps on the member's cond
// under the goroutine driver and parks its task under the DES driver.
//
// DESIGN.md §5 ("The host cost of MPI collectives") argues why the
// replay is exact.

import (
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/ldm"
)

// opKind names the collective a call runs. The members of one call
// must agree on it, on the root and on their payload lengths.
type opKind uint8

const (
	opBarrier   opKind = iota + 1
	opAllReduce        // binomial reduce to rank 0, then broadcast
	opRing             // ring reduce-scatter, then ring allgather
	opMinPairs         // binomial min-reduce to rank 0, then broadcast
	opBcast
	opSplit // gather (color, key) to rank 0, broadcast, then the partition
	opRows  // opAllReduce or opRing over row-sparse partials
)

var opNames = [...]string{
	opBarrier:   "barrier",
	opAllReduce: "allreduce",
	opRing:      "ring allreduce",
	opMinPairs:  "min-pairs",
	opBcast:     "bcast",
	opSplit:     "split",
	opRows:      "row allreduce",
}

func (k opKind) String() string { return opNames[k] }

// group is what the members of one communicator share: their world
// ranks and the collective call they are gathering at.
type group struct {
	members []int       // communicator rank -> world rank
	open    *call       // guarded by rvMu: the call members are arriving at
	index   map[int]int // guarded by rvMu: world rank -> communicator rank, built on first use
}

// call is one collective invocation on a group. Its slots are written
// under World.rvMu while members arrive; once the call is closed they
// belong to the member that closes it, which replays the call and then
// sets done. After done everything is read-only.
type call struct {
	grp     *group
	id      uint64 // communicator id, the high bits of every tag
	missing int    // guarded by rvMu: members neither arrived nor gone
	done    bool   // guarded by rvMu
	slots   []slot // by communicator rank

	// The outcome every member shares.
	op    opKind
	seq   uint64 // the members' tag counter on entry
	tags  uint64 // tags the call consumes
	err   error  // the members disagree on the call: nothing is charged
	table []int64
	part  *partition // opSplit: the partition of the gathered table
	subs  []*group   // opSplit: one group per new communicator
	sum   *RowSums   // opRows: the total

	// The replay's scratch: the packets of one step.
	in   []edge
	from []int
}

// slot is one member's side of a call: what it deposited, then what
// the replay left it with. It is kept small: a 4,096-rank call holds
// 4,096 of them.
type slot struct {
	arrived, gone bool // deposited, or crashed or aborted without arriving
	dead          bool // fail-stopped inside the call
	op            opKind
	root          int32
	clock         float64 // entry clock, then the replayed clock
	crashAt       float64 // scheduled fail-stop time, +Inf when none
	data          []float64
	ints          []int64
	rows          *RowSums // opRows: the member's partial, only read
	st            opState  // the peer failure the member has seen
	msgs, bytes   int64
	f             *slotFaults // nil until the member retries, dies or is reported
}

// slotFaults is the part of a slot only faults fill in.
type slotFaults struct {
	retrySecs float64
	tags      uint64       // when dead: the tags minted by then
	crashedAt float64      // when dead: the time markCrashed records
	err       error        // when dead: the member's own error
	lost      *RankFailure // what peers see once the member is dead or gone
}

// faults returns the slot's fault record, allocating it on first use.
func (s *slot) faults() *slotFaults {
	if s.f == nil {
		s.f = &slotFaults{}
	}
	return s.f
}

// edge is one replayed protocol message: sent is false when the sender
// fail-stopped before the send or never arrived.
type edge struct {
	sent bool
	time float64      // arrival stamp: post-retry send clock plus transfer time
	fail *RankFailure // non-nil for a poison packet
}

// rendezvous deposits the caller's side of a collective and returns the
// completed call. A caller whose crash time has passed fail-stops here,
// before depositing, exactly where the first message of the call would
// have stopped it.
func (c *Comm) rendezvous(op opKind, root int, data []float64, ints []int64, rows *RowSums) (*call, error) {
	if err := c.checkSelfCrash(); err != nil {
		c.seq++ // the first step's tag, minted before that message
		return nil, err
	}
	w := c.w
	crashAt := math.Inf(1)
	if w.inj != nil {
		if at, ok := w.inj.CrashTime(c.CG()); ok {
			crashAt = at
		}
	}
	w.rvMu.Lock()
	x := c.grp.open
	if x == nil {
		x = &call{grp: c.grp, id: c.id, seq: c.seq, slots: make([]slot, c.size), missing: c.size}
		c.grp.open = x
		w.calls = append(w.calls, x)
		for r, g := range c.grp.members {
			if w.isCrashed(g) || w.abortFail[g] != nil {
				x.slots[r].gone = true
				x.missing--
			}
		}
	}
	x.slots[c.rank] = slot{arrived: true, op: op, root: int32(root),
		clock: c.Clock().Now(), crashAt: crashAt, data: data, ints: ints, rows: rows}
	x.missing--
	if x.missing == 0 {
		w.rvMu.Unlock()
		w.complete(x)
		return x, nil
	}
	me := c.Global()
	for !x.done {
		if des := w.des; des != nil {
			w.rvMu.Unlock()
			des.tasks[me].Park()
			w.rvMu.Lock()
		} else {
			w.conds[me].Wait()
		}
	}
	w.rvMu.Unlock()
	return x, nil
}

// complete closes a call that no member is missing from any more,
// replays it, publishes the outcome and wakes its waiting members, each
// at its replayed clock under DES. Only the member or notice that took
// the last missing member calls it, and nothing else writes the call
// until done.
func (w *World) complete(x *call) {
	w.rvMu.Lock()
	x.grp.open = nil
	for i, y := range w.calls {
		if y == x {
			w.calls = append(w.calls[:i], w.calls[i+1:]...)
			break
		}
	}
	w.rvMu.Unlock()
	x.replay(w)
	w.rvMu.Lock()
	x.done = true
	for r := range x.slots {
		if s := &x.slots[r]; s.arrived {
			w.wake(x.grp.members[r], s.clock)
		}
	}
	w.rvMu.Unlock()
}

// noteGone records f as world rank g's crash or abort report in
// reports (w.crashed or w.abortFail), wakes every rank whose receive
// waits on g at the report's detection time, and completes every open
// call g was the last member missing from: g arrives at no further
// call this epoch.
func (w *World) noteGone(g int, reports []*RankFailure, f *RankFailure) {
	w.rvMu.Lock()
	reports[g] = f
	for r, src := range w.waitSrc {
		if src == g {
			w.wake(r, f.DetectedAt)
		}
	}
	var ready []*call
	for _, x := range w.calls {
		grp := x.grp
		if grp.index == nil {
			grp.index = make(map[int]int, len(grp.members))
			for r, m := range grp.members {
				grp.index[m] = r
			}
		}
		r, ok := grp.index[g]
		if !ok || x.slots[r].arrived || x.slots[r].gone {
			continue
		}
		x.slots[r].gone = true
		x.missing--
		if x.missing == 0 {
			ready = append(ready, x)
		}
	}
	w.rvMu.Unlock()
	for _, x := range ready {
		w.complete(x)
	}
}

// settle applies the caller's own outcome of a completed call: the
// call's tags, its replayed clock and traffic, then its own fail-stop,
// the peer failure it saw, or success. A call the members disagree on
// charges nothing.
func (c *Comm) settle(x *call) error {
	if x.err != nil {
		return x.err
	}
	s := &x.slots[c.rank]
	c.Clock().AdvanceTo(s.clock)
	if s.msgs > 0 {
		c.w.stats.AddNetMessages(s.msgs, s.bytes)
	}
	f := s.f
	if f == nil {
		c.seq += x.tags
		return s.st.err()
	}
	c.w.retrySecs[c.Global()] += f.retrySecs
	if !s.dead {
		c.seq += x.tags
		return s.st.err()
	}
	c.seq += f.tags
	c.w.markCrashed(c.Global(), f.crashedAt)
	return f.err
}

// replay computes every member's outcome of a closed call.
func (x *call) replay(w *World) {
	if x.err = x.check(); x.err != nil {
		return
	}
	p := len(x.slots)
	switch x.op {
	case opBarrier:
		for step := 1; step < p; step *= 2 {
			x.exchange(w, func(r int) int { return (r + step) % p }, func(int) int { return 0 }, nil)
		}
	case opAllReduce:
		x.reduce(w, sumInto)
		x.bcast(w, 0)
	case opMinPairs:
		x.reduce(w, minInto)
		x.bcast(w, 0)
	case opRing:
		x.ring(w)
	case opRows:
		x.replayRows(w)
	case opBcast:
		x.bcast(w, int(x.slots[x.first()].root))
	case opSplit:
		x.allGather(w)
		x.bcast(w, 0)
		if x.table != nil {
			x.part = derivePartition(x.table, x.grp.members)
			x.subs = make([]*group, len(x.part.groups))
			for i, m := range x.part.groups {
				x.subs[i] = &group{members: m}
			}
		}
	}
}

// first returns the lowest communicator rank that arrived; the member
// that opened the call always has.
func (x *call) first() int {
	for r := range x.slots {
		if x.slots[r].arrived {
			return r
		}
	}
	return -1
}

// check returns the error every member gets when the arrived members
// disagree on the collective, its root or their payload lengths (only
// the root's payload counts in a broadcast).
func (x *call) check() error {
	f := x.first()
	a := &x.slots[f]
	x.op = a.op
	af, ai := a.shape()
	for r := f + 1; r < len(x.slots); r++ {
		b := &x.slots[r]
		if !b.arrived {
			continue
		}
		bf, bi := b.shape()
		if b.op != a.op || b.root != a.root || (a.op != opBcast && (bf != af || bi != ai)) {
			return fmt.Errorf("mpi: collective mismatch on communicator %#x: rank %d calls %s (root %d, %d+%d elements), rank %d calls %s (root %d, %d+%d elements)",
				x.id, f, a.op, a.root, af, ai, r, b.op, b.root, bf, bi)
		}
	}
	return nil
}

// shape is the dense length of the member's floats and ints: a row
// partial stands for rows·width sums and rows counts.
func (s *slot) shape() (int, int) {
	if s.rows != nil {
		return s.rows.rows * s.rows.width, s.rows.rows
	}
	return len(s.data), len(s.ints)
}

// edges returns the cleared per-member packet scratch of one phase.
func (x *call) edges() []edge {
	if x.in == nil {
		x.in = make([]edge, len(x.slots))
	}
	clear(x.in)
	return x.in
}

// nextTag mints the call's next tag; each member's counter advances
// past the call's tags when it settles.
func (x *call) nextTag() uint64 {
	x.tags++
	return collectiveTag(x.id, x.seq+x.tags)
}

// elems is the dense payload length every member brought.
func (x *call) elems() int {
	nf, ni := x.slots[x.first()].shape()
	return nf + ni
}

// send replays member r's protocol send of elems elements to member
// dst under tag with sendPacket's arithmetic: the fail-stop check at the
// boundary, the transfer time at the pre-retry clock, each transient
// fault charged to the sender as that time plus a doubling backoff, a
// fail-stop once the retries are exhausted, and the packet stamped at
// the post-retry clock plus the transfer time. A poisoned sender sends
// an empty poison packet; a send to a dead peer is a dead letter that
// still costs all of this.
func (x *call) send(w *World, r, dst int, tag uint64, elems int) edge {
	s := &x.slots[r]
	if !s.arrived || s.dead {
		return edge{}
	}
	srcG, dstG := x.grp.members[r], x.grp.members[dst]
	if s.clock >= s.crashAt {
		x.stop(s, s.crashAt, &CrashStop{Rank: srcG, CG: srcG, At: s.crashAt})
		return edge{}
	}
	bytes := 0
	if s.st.fail == nil {
		bytes = elems * ldm.ElemBytes
	}
	s.msgs++
	s.bytes += int64(bytes)
	tt, err := w.transferTime(srcG, dstG, bytes, s.clock)
	if err != nil && x.err == nil {
		x.err = err
	}
	if inj := w.inj; inj != nil {
		for attempt := 0; inj.MsgFault(srcG, dstG, tag, s.clock, attempt); attempt++ {
			if attempt >= inj.MaxRetries() {
				x.stop(s, s.clock, fmt.Errorf("mpi: rank %d message to rank %d (tag %#x) exhausted %d retries at t=%.9fs: %w",
					srcG, dstG, tag, inj.MaxRetries(), s.clock, fault.ErrLinkFailed))
				return edge{}
			}
			cost := tt + inj.Backoff(attempt+1)
			s.faults().retrySecs += cost
			s.clock += cost
		}
	}
	return edge{sent: true, time: s.clock + tt, fail: s.st.fail}
}

// recv replays member r's protocol receive of e from member src with
// recvFull's arithmetic and reports whether r takes clean data to
// combine: the fail-stop check at the boundary, the clock advanced to
// the packet's stamp, a poison packet folded into r's failure, and a
// packet src never sent replaced by src's failure report at its
// detection time.
func (x *call) recv(w *World, r, src int, e edge) bool {
	s := &x.slots[r]
	if !s.arrived || s.dead {
		return false
	}
	if s.clock >= s.crashAt {
		g := x.grp.members[r]
		x.stop(s, s.crashAt, &CrashStop{Rank: g, CG: g, At: s.crashAt})
		return false
	}
	if !e.sent {
		f := x.failureOf(w, src)
		s.clock = math.Max(s.clock, f.DetectedAt)
		s.st.merge(f)
		return false
	}
	s.clock = math.Max(s.clock, e.time)
	if e.fail != nil {
		s.st.merge(e.fail)
		return false
	}
	return s.st.fail == nil
}

// stop fail-stops a member inside the call, after the tags minted so
// far.
func (x *call) stop(s *slot, at float64, err error) {
	s.dead = true
	f := s.faults()
	f.crashedAt, f.err, f.tags = at, err, x.tags
}

// failureOf is the report a receiver gets for member r's missing
// packet: r's crash when it fail-stopped in the call or before it,
// otherwise the failure its aborted callback published.
func (x *call) failureOf(w *World, r int) *RankFailure {
	s := &x.slots[r]
	f := s.faults()
	if f.lost != nil {
		return f.lost
	}
	g := x.grp.members[r]
	switch {
	case s.dead:
		f.lost = &RankFailure{Rank: g, CG: g, CrashedAt: f.crashedAt,
			DetectedAt: f.crashedAt + w.inj.HeartbeatTimeout()}
	case w.isCrashed(g):
		f.lost = w.crashed[g]
	default:
		f.lost = w.abortFail[g]
	}
	return f.lost
}

// exchange replays one round in which every member r sends to to(r)
// the elems(r) elements and receives from the member that sends to it,
// calling take for every clean receipt — a dissemination or ring step.
func (x *call) exchange(w *World, to, elems func(r int) int, take func(r, from int)) {
	tag := x.nextTag()
	if x.from == nil {
		x.from = make([]int, len(x.slots))
	}
	in, from := x.edges(), x.from // in[to(r)] is r's packet, from r
	for r := range x.slots {
		dst := to(r)
		in[dst], from[dst] = x.send(w, r, dst, tag, elems(r)), r
	}
	for r := range x.slots {
		if x.recv(w, r, from[r], in[r]) && take != nil {
			take(r, from[r])
		}
	}
}

// reduce replays the binomial reduce to rank 0: members in decreasing
// rank order, so that every child has sent before its parent receives,
// each receiving from its children in increasing mask order and folding
// clean payloads into its own buffer with combine, when non-nil, then
// sending to its parent.
func (x *call) reduce(w *World, combine func(dst, src *slot)) {
	p, elems := len(x.slots), x.elems()
	tag := x.nextTag()
	up := x.edges() // up[r] is r's packet to its parent
	for r := p - 1; r >= 0; r-- {
		for mask := 1; mask < p; mask <<= 1 {
			if r&mask != 0 {
				up[r] = x.send(w, r, r-mask, tag, elems)
				break
			}
			if r+mask < p && x.recv(w, r, r+mask, up[r+mask]) && combine != nil {
				combine(&x.slots[r], &x.slots[r+mask])
			}
		}
	}
}

// sumInto adds a child's partial sums to its parent's.
func sumInto(dst, src *slot) {
	for j, v := range src.data {
		dst.data[j] += v
	}
	for j, v := range src.ints {
		dst.ints[j] += v
	}
}

// minInto keeps the smaller of each parent and child pair.
func minInto(dst, src *slot) {
	for j, v := range src.data {
		if MinPairLess(v, src.ints[j], dst.data[j], dst.ints[j]) {
			dst.data[j], dst.ints[j] = v, src.ints[j]
		}
	}
}

// bcast replays the binomial broadcast from root: members in relative
// rank order, so that every parent has sent before its children
// receive, each receiving from its parent and forwarding to its
// children from the largest subtree down. After the dense allreduces a
// member that took the payload clean and is still alive after
// forwarding copies the root's buffer, as bcastInto did; every other
// collective shares one result instead: the root's own buffers in a
// Bcast, the sum of a row allreduce, the gathered table of a split.
func (x *call) bcast(w *World, root int) {
	p, src := len(x.slots), &x.slots[root]
	var elems int
	switch x.op {
	case opSplit:
		elems = p * len(x.slots[x.first()].ints)
	case opBcast:
		// Only the root's payload is read: a root that never arrived
		// sends nothing, and everyone after it forwards poison.
		elems = len(src.data) + len(src.ints)
	default:
		elems = x.elems()
	}
	private := x.op == opAllReduce || x.op == opMinPairs
	tag := x.nextTag()
	top := 1
	for top < p {
		top <<= 1
	}
	in := x.edges() // in[rel] is the packet relative rank rel receives
	for rel := 0; rel < p; rel++ {
		r := (rel + root) % p
		mask, clean := top, false
		if rel != 0 {
			mask = rel & -rel
			clean = x.recv(w, r, (r-mask+p)%p, in[rel])
		}
		for mask >>= 1; mask > 0; mask >>= 1 {
			if rel+mask < p {
				in[rel+mask] = x.send(w, r, (r+mask)%p, tag, elems)
			}
		}
		if s := &x.slots[r]; clean && !s.dead && private {
			copy(s.data, src.data)
			copy(s.ints, src.ints)
		}
	}
}

// allGather replays the gather to rank 0: every other member sends its
// contribution, rank 0 receives them in rank order, and when it stays
// clean the call's table is the concatenation of the contributions.
func (x *call) allGather(w *World) {
	p, n := len(x.slots), len(x.slots[x.first()].ints)
	tag := x.nextTag()
	in := x.edges()
	for r := 1; r < p; r++ {
		in[r] = x.send(w, r, 0, tag, n)
	}
	for r := 1; r < p; r++ {
		x.recv(w, 0, r, in[r])
	}
	if root := &x.slots[0]; root.arrived && !root.dead && root.st.fail == nil {
		x.table = make([]int64, n*p)
		for r := range x.slots {
			copy(x.table[r*n:], x.slots[r].ints)
		}
	}
}
