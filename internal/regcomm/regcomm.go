// Package regcomm simulates register communication across the 8-by-8
// CPE mesh of one SW26010 core group. The hardware provides 8 row and
// 8 column communication buses; a CPE can exchange register payloads
// directly with any CPE in the same row or the same column, which is
// the fastest on-chip data-sharing fabric (46.4 GB/s, a 3x-4x speedup
// over DMA or MPI for the AllReduce bottleneck of the Update step).
//
// The package offers two layers:
//
//   - Mesh/CPE: a fully functional substrate. Each CPE runs as its own
//     goroutine; sends are restricted to row/column neighbours exactly
//     like the hardware buses, point-to-point payloads really move, and
//     virtual clocks reconcile through message timestamps. AllReduce is
//     one mesh-wide rendezvous that replays, on every CPE, the clock,
//     spans and traffic of the recursive-doubling exchange it models.
//   - Model: closed-form costs for mesh collectives, used by the
//     large-scale core-group executors that simulate the 64 CPE kernels
//     of a CG inside one goroutine.
package regcomm

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// Model provides closed-form timing for register-communication
// operations of one core group.
type Model struct {
	bw      float64 // bytes per second, aggregate per CG
	latency float64 // seconds per transfer step
}

// NewModel derives the cost model from a machine spec.
func NewModel(spec *machine.Spec) Model {
	return Model{bw: spec.BW.RegComm, latency: spec.BW.RegLatency}
}

// P2PTime is the cost of one register transfer of elems elements
// between two CPEs on a shared bus.
func (m Model) P2PTime(elems int) float64 {
	if elems <= 0 {
		return m.latency
	}
	return m.latency + float64(elems*ldm.ElemBytes)/m.bw
}

// StepTime is the cost of one collective step in which all 64 CPEs
// exchange elems elements pairwise concurrently, sharing the CG's
// aggregate register bandwidth.
func (m Model) StepTime(elems int) float64 {
	if elems < 0 {
		elems = 0
	}
	return m.latency + float64(elems*ldm.ElemBytes*machine.CPEsPerCG)/m.bw
}

// AllReduceTime is the cost of a full-mesh allreduce of elems elements
// per CPE: recursive doubling along rows (3 steps) then columns
// (3 steps), log2(64) = 6 steps total.
func (m Model) AllReduceTime(elems int) float64 {
	return 6 * m.StepTime(elems)
}

// message is one register transfer in flight.
type message struct {
	from int // sender mesh index
	time float64
	data []float64
	ints []int64
}

// Mesh is a functional 8x8 register-communication fabric.
type Mesh struct {
	model  Model
	stats  *trace.Stats
	clocks []*vclock.Clock
	// units[i] is CPE i's span sink, nil when unobserved. Installed
	// before Run; afterwards each unit is touched only by its CPE's
	// goroutine (Run's completion channel orders the handoff).
	units  []*obs.Unit
	inbox  [machine.CPEsPerCG]mailbox
	reduce rendezvous
}

// mailbox holds the messages delivered to one CPE and not yet read:
// Send appends to the destination's and signals its cond, Recv takes
// the first message from its source or waits on its own cond.
type mailbox struct {
	mu    sync.Mutex
	msgs  []message // guarded by mu
	ready sync.Cond // on mu
}

// NewMesh builds the fabric for one core group. The stats sink may be
// nil.
func NewMesh(spec *machine.Spec, stats *trace.Stats) *Mesh {
	m := &Mesh{
		model:  NewModel(spec),
		stats:  stats,
		clocks: make([]*vclock.Clock, machine.CPEsPerCG),
	}
	for i := range m.clocks {
		m.clocks[i] = vclock.New()
		m.inbox[i].ready.L = &m.inbox[i].mu
	}
	m.reduce.cond.L = &m.reduce.mu
	return m
}

// Run executes kernel concurrently on all 64 CPEs of the mesh and
// blocks until every kernel returns. It returns the completion time:
// the maximum virtual clock across CPEs.
func (m *Mesh) Run(kernel func(c *CPE)) float64 {
	done := make(chan struct{})
	for i := 0; i < machine.CPEsPerCG; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			kernel(&CPE{mesh: m, id: i})
		}(i)
	}
	for i := 0; i < machine.CPEsPerCG; i++ {
		<-done
	}
	return vclock.MaxTime(m.clocks...)
}

// SetObserver attaches a span recorder: CPE i records its register
// transfers and kernel compute on unit "<prefix>cpe/<i>". The prefix
// namespaces meshes when several CGs run fine-grained at once. Install
// before Run, never concurrently with one.
func (m *Mesh) SetObserver(rec *obs.Recorder, prefix string) {
	if rec == nil {
		return
	}
	m.units = make([]*obs.Unit, machine.CPEsPerCG)
	for i := range m.units {
		m.units[i] = rec.Unit(fmt.Sprintf("%scpe/%d", prefix, i))
	}
}

// Unit returns CPE i's span unit, nil when the mesh is unobserved.
// Kernels record their compute and DMA phases on it.
func (m *Mesh) Unit(i int) *obs.Unit {
	if m.units == nil {
		return nil
	}
	return m.units[i]
}

// FinishObserved closes every CPE's timeline at its final clock,
// surfacing trailing synchronization as explicit "other" spans. Call
// after the last Run.
func (m *Mesh) FinishObserved() {
	for i, u := range m.units {
		u.Finish(m.clocks[i].Now())
	}
}

// Reset zeroes all CPE clocks, for reuse across measured iterations.
func (m *Mesh) Reset() {
	for _, c := range m.clocks {
		c.Reset()
	}
}

// MaxTime returns the latest CPE clock — the completion time of the
// last Run.
func (m *Mesh) MaxTime() float64 { return vclock.MaxTime(m.clocks...) }

// AdvanceTo raises every CPE clock to at least t, for callers that
// interleave mesh phases with work on another time line (for example
// the managing processing element driving MPI between mesh kernels).
func (m *Mesh) AdvanceTo(t float64) {
	for _, c := range m.clocks {
		c.AdvanceTo(t)
	}
}

// CPE is the per-goroutine handle of one computing processing element
// inside Mesh.Run.
type CPE struct {
	mesh *Mesh
	id   int
}

// ID returns the mesh index in [0, 64).
func (c *CPE) ID() int { return c.id }

// Row returns the mesh row in [0, 8).
func (c *CPE) Row() int { return c.id / machine.MeshSide }

// Col returns the mesh column in [0, 8).
func (c *CPE) Col() int { return c.id % machine.MeshSide }

// Clock returns the CPE's virtual clock.
func (c *CPE) Clock() *vclock.Clock { return c.mesh.clocks[c.id] }

// sameBus reports whether two mesh indexes share a row or column bus.
func sameBus(a, b int) bool {
	return a/machine.MeshSide == b/machine.MeshSide ||
		a%machine.MeshSide == b%machine.MeshSide
}

// Send transfers data to the CPE at mesh index dst. The destination
// must share a row or column bus with the sender; the hardware has no
// diagonal path, and the simulator enforces the same restriction so
// kernels that run here would be implementable on the real mesh.
func (c *CPE) Send(dst int, data []float64, ints []int64) error {
	if dst < 0 || dst >= machine.CPEsPerCG {
		return fmt.Errorf("regcomm: destination %d out of range", dst)
	}
	if dst == c.id {
		return fmt.Errorf("regcomm: CPE %d sending to itself", c.id)
	}
	if !sameBus(c.id, dst) {
		return fmt.Errorf("regcomm: CPE %d and %d share no row or column bus", c.id, dst)
	}
	elems := len(data) + len(ints)
	cost := c.mesh.model.P2PTime(elems)
	start := c.Clock().Now()
	c.Clock().Advance(cost)
	c.mesh.stats.AddReg(int64(elems * ldm.ElemBytes))
	c.mesh.Unit(c.id).Record(obs.KindReg, start, c.Clock().Now(), int64(elems*ldm.ElemBytes), 0)
	msg := message{from: c.id, time: c.Clock().Now()}
	msg.data = append(msg.data, data...)
	msg.ints = append(msg.ints, ints...)
	b := &c.mesh.inbox[dst]
	b.mu.Lock()
	b.msgs = append(b.msgs, msg)
	b.mu.Unlock()
	b.ready.Signal()
	return nil
}

// Recv blocks until a message from mesh index src arrives and returns
// its payload: the first one src sent that is still unread, whatever
// other senders have delivered meanwhile. The receive completes no
// earlier than the sender's clock at completion of the send.
func (c *CPE) Recv(src int) ([]float64, []int64, error) {
	if src < 0 || src >= machine.CPEsPerCG {
		return nil, nil, fmt.Errorf("regcomm: source %d out of range", src)
	}
	b := &c.mesh.inbox[c.id]
	start := c.Clock().Now()
	b.mu.Lock()
	for {
		for i, msg := range b.msgs {
			if msg.from == src {
				b.msgs = slices.Delete(b.msgs, i, i+1)
				b.mu.Unlock()
				c.Clock().AdvanceTo(msg.time)
				c.mesh.Unit(c.id).Record(obs.KindReg, start, c.Clock().Now(),
					int64((len(msg.data)+len(msg.ints))*ldm.ElemBytes), 0)
				return msg.data, msg.ints, nil
			}
		}
		b.ready.Wait()
	}
}

// AllReduce combines buf and counts element-wise across all 64 CPEs
// with summation and leaves the full result on every CPE — the
// register-communication implementation of the paper's two AllReduce
// operations in the Update step (Algorithm 1 line 14). Either slice may
// be nil; every CPE must pass the same lengths, or every CPE returns an
// error and nothing is charged.
//
// The modelled algorithm is recursive doubling along rows then columns:
// six steps, each a Send of the whole payload to the partner and a Recv
// of the partner's. The host runs it as one rendezvous: the last CPE to
// arrive sums the partials in the doubling tree's order, which yields
// the bits every CPE would end with, and computes every CPE's six send
// completion times. Each CPE then copies the result and replays its
// sends and receives on its clock, span unit and traffic counters
// exactly as Send and Recv record them.
func (c *CPE) AllReduce(buf []float64, counts []int64) error {
	r := &c.mesh.reduce
	r.mu.Lock()
	round := r.round
	r.in[c.id] = deposit{buf: buf, counts: counts, clock: c.Clock().Now()}
	r.arrived++
	if r.arrived == machine.CPEsPerCG {
		r.combine(c.mesh.model, &r.in)
		clear(r.in[:])
		r.arrived = 0
		r.round++
		r.cond.Broadcast()
	}
	for r.round == round {
		r.cond.Wait()
	}
	r.mu.Unlock()
	// The round's outcome stays put until all 64 CPEs have entered the
	// next round, so reading it unlocked is safe.
	if r.err != nil {
		return r.err
	}
	copy(buf, r.sum)
	copy(counts, r.total)
	c.replay(&r.sends, len(buf)+len(counts))
	return nil
}

// replay charges the CPE's six recursive-doubling steps of an
// elems-element allreduce as Send and Recv would: each step advances the
// clock by one transfer, counts it and records its span, then waits for
// the partner's send to complete and records the receive span.
func (c *CPE) replay(sends *[machine.CPEsPerCG][allReduceSteps]float64, elems int) {
	clock, unit := c.Clock(), c.mesh.Unit(c.id)
	cost := c.mesh.model.P2PTime(elems)
	bytes := int64(elems * ldm.ElemBytes)
	for step := 0; step < allReduceSteps; step++ {
		start := clock.Now()
		clock.Advance(cost)
		c.mesh.stats.AddReg(bytes)
		unit.Record(obs.KindReg, start, clock.Now(), bytes, 0)
		start = clock.Now()
		clock.AdvanceTo(sends[partner(c.id, step)][step])
		unit.Record(obs.KindReg, start, clock.Now(), bytes, 0)
	}
}

// allReduceSteps is the depth of the recursive-doubling allreduce:
// three steps along the row bus, then three down the column bus.
const allReduceSteps = 6

// partner is CPE id's recursive-doubling partner at step 0..5. The
// partners differ in one bit of the mesh index: bits 0-2 are the
// column, so steps 0-2 stay on the row bus, and bits 3-5 the row, so
// steps 3-5 stay on the column bus.
func partner(id, step int) int { return id ^ 1<<step }

// rendezvous is the mesh-wide meeting point behind AllReduce.
type rendezvous struct {
	mu      sync.Mutex
	cond    sync.Cond // on mu; broadcast when a round completes
	round   uint64    // guarded by mu; completed rounds
	arrived int       // guarded by mu; CPEs in the current round
	// What each CPE brought to the current round.
	in [machine.CPEsPerCG]deposit // guarded by mu
	// The outcome of the last completed round, written by its last
	// arriver. The next round's last arriver overwrites it, and by then
	// every CPE has left this round.
	err   error
	sum   []float64
	total []int64
	sends [machine.CPEsPerCG][allReduceSteps]float64 // sends[i][step]: CPE i's clock when that step's send completes
	// levels holds one block of the doubling tree's partial sums below
	// the root.
	levels [allReduceSteps - 1][sumBlock]float64
}

// deposit is what one CPE brings to an allreduce round: its payload
// and its clock on entry.
type deposit struct {
	buf    []float64
	counts []int64
	clock  float64
}

// sumBlock is the length of the blocks the tree sum walks the payload
// in, so that its levels of partial sums stay in the L1 cache.
const sumBlock = 512

// combine computes a round's outcome from every CPE's deposit. The
// caller holds mu and is the last CPE to arrive.
func (r *rendezvous) combine(model Model, in *[machine.CPEsPerCG]deposit) {
	n, ni := len(in[0].buf), len(in[0].counts)
	for i, d := range in {
		if len(d.buf) != n || len(d.counts) != ni {
			r.err = fmt.Errorf("regcomm: allreduce payload mismatch: CPE %d brings %d floats and %d counts, CPE 0 %d and %d",
				i, len(d.buf), len(d.counts), n, ni)
			return
		}
	}
	r.err = nil
	r.sum = resize(r.sum, n)
	for lo := 0; lo < n; lo += sumBlock {
		treeSum(r.sum[lo:min(lo+sumBlock, n)], in[:], lo, r.levels[:])
	}
	// Integer addition is associative, so any order gives the tree's
	// result.
	r.total = resize(r.total, ni)
	clear(r.total)
	for _, d := range in {
		for e, v := range d.counts {
			r.total[e] += v
		}
	}
	// Every CPE's clock through the six steps, with the arithmetic of
	// Send (Advance by one transfer) and Recv (AdvanceTo the partner's
	// send completion).
	cost := model.P2PTime(n + ni)
	var t [machine.CPEsPerCG]float64
	for i, d := range in {
		t[i] = d.clock
	}
	for step := 0; step < allReduceSteps; step++ {
		for i := range t {
			r.sends[i][step] = t[i] + cost
			t[i] = r.sends[i][step]
		}
		for i := range t {
			if p := r.sends[partner(i, step)][step]; p > t[i] {
				t[i] = p
			}
		}
	}
}

// treeSum sets dst to the sum of the deposits' floats lo..lo+len(dst)
// in recursive-doubling order: both halves summed this way, then the
// right half added to the left. At every node this is the addition each
// CPE of the subtree performs on its exchange, with the operands
// possibly swapped, and IEEE addition is commutative. len(in) is a
// power of two, at least 2; levels holds log2(len(in))-1 scratch
// blocks.
func treeSum(dst []float64, in []deposit, lo int, levels [][sumBlock]float64) {
	if len(in) == 2 {
		a, b := in[0].buf[lo:lo+len(dst)], in[1].buf[lo:lo+len(dst)]
		for e := range dst {
			dst[e] = a[e] + b[e]
		}
		return
	}
	half := len(in) / 2
	right := levels[0][:len(dst)]
	treeSum(dst, in[:half], lo, levels[1:])
	treeSum(right, in[half:], lo, levels[1:])
	for e := range dst {
		dst[e] += right[e]
	}
}

// resize returns s with length n, reusing its array when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
