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
//     like the hardware buses, payloads really move, and virtual clocks
//     reconcile through message timestamps.
//   - Model: closed-form costs for mesh collectives, used by the
//     large-scale core-group executors that simulate the 64 CPE kernels
//     of a CG inside one goroutine.
package regcomm

import (
	"fmt"

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

// LineReduceTime is the cost of reducing elems elements across the 8
// CPEs of one row or column onto a leader (3 recursive-halving steps).
func (m Model) LineReduceTime(elems int) float64 {
	return 3 * m.StepTime(elems)
}

// LineBroadcastTime is the cost of broadcasting elems elements from a
// leader across its row or column bus (3 doubling steps).
func (m Model) LineBroadcastTime(elems int) float64 {
	return 3 * m.StepTime(elems)
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
	inbox  []chan message
	clocks []*vclock.Clock
	// units[i] is CPE i's span sink, nil when unobserved. Installed
	// before Run; afterwards each unit is touched only by its CPE's
	// goroutine (Run's completion channel orders the handoff).
	units []*obs.Unit
}

// NewMesh builds the fabric for one core group. The stats sink may be
// nil.
func NewMesh(spec *machine.Spec, stats *trace.Stats) *Mesh {
	m := &Mesh{
		model:  NewModel(spec),
		stats:  stats,
		inbox:  make([]chan message, machine.CPEsPerCG),
		clocks: make([]*vclock.Clock, machine.CPEsPerCG),
	}
	for i := range m.inbox {
		// One slot per potential sender is ample: the collectives used
		// here never have more than one outstanding message per pair.
		m.inbox[i] = make(chan message, machine.CPEsPerCG)
		m.clocks[i] = vclock.New()
	}
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
	c.mesh.inbox[dst] <- msg
	return nil
}

// Recv blocks until a message from mesh index src arrives and returns
// its payload. The receive completes no earlier than the sender's
// clock at completion of the send.
func (c *CPE) Recv(src int) ([]float64, []int64, error) {
	if src < 0 || src >= machine.CPEsPerCG {
		return nil, nil, fmt.Errorf("regcomm: source %d out of range", src)
	}
	// Messages from distinct senders may interleave in the inbox; hold
	// back foreign messages and redeliver them.
	var held []message
	start := c.Clock().Now()
	for {
		msg := <-c.mesh.inbox[c.id]
		if msg.from == src {
			for _, h := range held {
				c.mesh.inbox[c.id] <- h
			}
			c.Clock().AdvanceTo(msg.time)
			c.mesh.Unit(c.id).Record(obs.KindReg, start, c.Clock().Now(),
				int64((len(msg.data)+len(msg.ints))*ldm.ElemBytes), 0)
			return msg.data, msg.ints, nil
		}
		//swlint:ignore goroutine-purity -- held messages are redelivered and re-matched by origin (msg.from), so arrival order never reaches results
		held = append(held, msg)
	}
}

// AllReduce combines buf and counts element-wise across all 64 CPEs
// with summation and leaves the full result on every CPE, using
// recursive doubling along rows then columns — the register-
// communication implementation of the paper's two AllReduce operations
// in the Update step (Algorithm 1 line 14). Either slice may be nil.
func (c *CPE) AllReduce(buf []float64, counts []int64) error {
	// Phase 1: recursive doubling across the row (partner differs in
	// column bit), phase 2: across the column.
	for _, phase := range [2]struct{ stride, limit int }{
		{1, machine.MeshSide},                 // columns within the row
		{machine.MeshSide, machine.CPEsPerCG}, // rows within the column
	} {
		for step := phase.stride; step < phase.limit; step *= 2 {
			partner := c.partner(step, phase.stride)
			if err := c.Send(partner, buf, counts); err != nil {
				return err
			}
			data, ints, err := c.Recv(partner)
			if err != nil {
				return err
			}
			if len(data) != len(buf) || len(ints) != len(counts) {
				return fmt.Errorf("regcomm: allreduce payload mismatch on CPE %d", c.id)
			}
			for i, v := range data {
				buf[i] += v
			}
			for i, v := range ints {
				counts[i] += v
			}
		}
	}
	return nil
}

// RowBroadcast distributes the root column's buf across the CPE's row
// bus: the CPE at column rootCol sends, the others receive into buf
// (which must have equal length everywhere). Every CPE of every row
// must call it. This is the hardware-native way one sample stripe is
// shared along a row.
func (c *CPE) RowBroadcast(rootCol int, buf []float64) error {
	if rootCol < 0 || rootCol >= machine.MeshSide {
		return fmt.Errorf("regcomm: root column %d out of range", rootCol)
	}
	return c.lineBroadcast(rootCol, c.Col(), 1, buf)
}

// ColBroadcast distributes the root row's buf down the CPE's column
// bus; the counterpart of RowBroadcast for column sharing.
func (c *CPE) ColBroadcast(rootRow int, buf []float64) error {
	if rootRow < 0 || rootRow >= machine.MeshSide {
		return fmt.Errorf("regcomm: root row %d out of range", rootRow)
	}
	return c.lineBroadcast(rootRow, c.Row(), machine.MeshSide, buf)
}

// lineBroadcast runs a binomial broadcast along one bus (stride 1 for
// a row, 8 for a column). pos is the CPE's index on the bus, root the
// sender's index.
func (c *CPE) lineBroadcast(root, pos, stride int, buf []float64) error {
	rel := (pos - root + machine.MeshSide) % machine.MeshSide
	mask := 1
	for mask < machine.MeshSide {
		if rel&mask != 0 {
			srcPos := (pos - mask + machine.MeshSide) % machine.MeshSide
			src := c.id + (srcPos-pos)*stride
			data, _, err := c.Recv(src)
			if err != nil {
				return err
			}
			if len(data) != len(buf) {
				return fmt.Errorf("regcomm: broadcast payload mismatch on CPE %d", c.id)
			}
			copy(buf, data)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < machine.MeshSide && rel&(mask-1) == 0 && rel&mask == 0 {
			dstPos := (pos + mask) % machine.MeshSide
			dst := c.id + (dstPos-pos)*stride
			if err := c.Send(dst, buf, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// partner computes the recursive-doubling partner at the given step
// within a phase whose unit stride is stride (1 for row phase, 8 for
// column phase).
func (c *CPE) partner(step, stride int) int {
	pos := (c.id / stride) % machine.MeshSide
	unit := step / stride
	ppos := pos ^ unit
	return c.id + (ppos-pos)*stride
}
