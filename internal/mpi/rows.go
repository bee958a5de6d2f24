package mpi

import (
	"math/bits"
	"slices"

	"repro/internal/ldm"
)

// RowSums is one rank's row-sparse partial sum of a rows-by-width
// matrix with one count per row: the Update step's k·d centroid sums
// and k counts, holding only the rows the rank added samples to. A row
// enters at +0 with count 0 on its first Add, exactly like a dense
// row, so a present row equals the dense partial bit for bit and an
// absent row is the dense partial's untouched +0.
type RowSums struct {
	rows, width int
	slot        []int32   // row -> 1 + its index in present; 0 when absent
	present     []int32   // present rows in first-touch order
	data        []float64 // len(present) rows of width sums
	counts      []int64   // len(present) counts
}

// NewRowSums returns an empty partial of rows rows of width values.
func NewRowSums(rows, width int) *RowSums {
	return &RowSums{rows: rows, width: width, slot: make([]int32, rows)}
}

// Rows returns the number of rows of the dense matrix.
func (s *RowSums) Rows() int { return s.rows }

// denseElems is the length of the dense payload the partial stands
// for: rows·width sums and rows counts.
func (s *RowSums) denseElems() int { return s.rows*s.width + s.rows }

// Row returns row j's sums and count, or nil and 0 when no sample was
// added to it. The slice aliases the partial.
func (s *RowSums) Row(j int) ([]float64, int64) {
	i := int(s.slot[j])
	if i == 0 {
		return nil, 0
	}
	return s.data[(i-1)*s.width : i*s.width], s.counts[i-1]
}

// Add adds the width values of x to row j and counts one sample. The
// row's first sample is added to +0, never copied in: a −0 sample
// leaves +0, as it does in a dense sum.
func (s *RowSums) Add(j int, x []float64) {
	i := int(s.slot[j])
	if i == 0 {
		i = s.insert(j)
	}
	row := s.data[(i-1)*s.width : i*s.width]
	for u, v := range x[:len(row)] {
		row[u] += v
	}
	s.counts[i-1]++
}

// insert appends row j at +0 with count 0 and returns its slot.
func (s *RowSums) insert(j int) int {
	n := len(s.data)
	s.data = slices.Grow(s.data, s.width)[:n+s.width]
	clear(s.data[n:])
	s.present = append(s.present, int32(j))
	s.counts = append(s.counts, 0)
	s.slot[j] = int32(len(s.present))
	return len(s.present)
}

// Reset empties the partial, keeping its storage.
func (s *RowSums) Reset() {
	for _, j := range s.present {
		s.slot[j] = 0
	}
	s.present = s.present[:0]
	s.data = s.data[:0]
	s.counts = s.counts[:0]
}

// AllReduceRows sums the members' partials, which must share their
// shape, and returns the total: one result for every member, shared
// read-only. The call is modelled and charged as the dense allreduce of
// the rows·width sums and rows counts the partials stand for: the
// binomial reduce and broadcast below ringThresholdElems elements, the
// ring at or above it on more than two ranks, so clocks, traffic,
// spans and fault rolls are the dense call's. Only present rows are
// folded, in the dense algorithm's order, so the result equals the
// dense sum bit for bit (DESIGN.md §5, "The host cost of replicated
// state"). The caller's partial is only read; on one rank it is the
// result. On error the result is nil.
func (c *Comm) AllReduceRows(part *RowSums) (*RowSums, error) {
	u, m := c.obsBegin()
	sum, err := c.allReduceRows(part)
	c.obsEnd(u, m, "mpi:allreduce", int64(part.denseElems()*ldm.ElemBytes))
	return sum, err
}

func (c *Comm) allReduceRows(part *RowSums) (*RowSums, error) {
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		return part, nil
	}
	x, err := c.rendezvous(opRows, 0, nil, nil, part)
	if err != nil {
		return nil, err
	}
	if err := c.settle(x); err != nil {
		return nil, err
	}
	return x.sum, nil
}

// rowsRing reports whether a row allreduce of p members takes the
// ring: the dense payload reaches ringThresholdElems and there are more
// than two members.
func rowsRing(part *RowSums, p int) bool {
	return part.denseElems() >= ringThresholdElems && p > 2
}

// replayRows replays a row allreduce: the dense algorithm's edges with
// the dense element counts, then, when a member came out clean, the one
// shared sum. A clean member proves every member contributed through a
// clean chain of edges, so the sum it would have taken is the complete
// fold: in the binomial tree the broadcast reached it from a clean root,
// and a clean root received every subtree clean; around the ring poison
// travels one hop per step, and 2(p-1)-1 hops reach every member.
func (x *call) replayRows(w *World) {
	p := len(x.slots)
	part := x.slots[x.first()].rows
	ring := rowsRing(part, p)
	if ring {
		x.ring(w)
	} else {
		x.reduce(w, nil)
		x.bcast(w, 0)
	}
	if x.err != nil {
		return
	}
	for r := range x.slots {
		if s := &x.slots[r]; s.arrived && !s.dead && s.st.fail == nil {
			x.sum = x.sumRows(ring)
			return
		}
	}
}

// sumRows folds the members' present rows into the result, row by row
// in ascending order, in the order the dense algorithm adds them.
func (x *call) sumRows(ring bool) *RowSums {
	first := x.slots[0].rows
	rows, width := first.rows, first.width
	union := make([]bool, rows)
	n := 0
	for r := range x.slots {
		for _, j := range x.slots[r].rows.present {
			if !union[j] {
				union[j] = true
				n++
			}
		}
	}
	out := &RowSums{rows: rows, width: width, slot: make([]int32, rows),
		present: make([]int32, 0, n), data: make([]float64, n*width), counts: make([]int64, n)}
	var bufs [][]float64
	if !ring {
		bufs = make([][]float64, bits.Len(uint(len(x.slots))))
		for i := range bufs {
			bufs[i] = make([]float64, width)
		}
	}
	for j, held := range union {
		if !held {
			continue
		}
		i := len(out.present)
		out.present = append(out.present, int32(j))
		out.slot[j] = int32(i + 1)
		for r := range x.slots {
			_, cnt := x.slots[r].rows.Row(j)
			out.counts[i] += cnt
		}
		dst := out.data[i*width : (i+1)*width]
		if ring {
			x.ringRow(j, dst)
		} else {
			x.treeRow(0, j, dst, bufs)
		}
	}
	return out
}

// treeRow writes row j of member r's binomial-reduce partial into out
// and reports whether any member of r's subtree holds the row; out is
// untouched when none does. Each edge folds dst += src, the child's
// partial into the parent's, children in increasing mask order, as
// reduce does. An absent row is the dense +0, and since no partial is
// ever −0 (each starts at +0 and only adds), +0 + v is v: an edge from
// an absent subtree is skipped and one into an absent parent copies.
func (x *call) treeRow(r, j int, out []float64, bufs [][]float64) bool {
	p := len(x.slots)
	held := false
	if v, _ := x.slots[r].rows.Row(j); v != nil {
		copy(out, v)
		held = true
	}
	for mask := 1; r&mask == 0 && r+mask < p; mask <<= 1 {
		child := bufs[0]
		if !x.treeRow(r+mask, j, child, bufs[1:]) {
			continue
		}
		if !held {
			copy(out, child)
			held = true
			continue
		}
		for u, v := range child {
			out[u] += v
		}
	}
	return held
}

// ringRow writes row j of the ring allreduce's sum into out. The
// reduce-scatter folds each element along its segment's chain: the
// segment's owner s sends its value to s+1, which adds its own, and so
// on to s+p-1. The row's columns are cut at the segment boundaries of
// the dense payload and each piece folds from its owner; absent rows
// are skipped as in treeRow. At least one member holds the row, so
// every piece is written.
func (x *call) ringRow(j int, out []float64) {
	p := len(x.slots)
	width := len(out)
	nf := x.slots[0].rows.rows * width
	base := j * width
	for col := 0; col < width; {
		s := segmentOf(nf, p, base+col)
		_, hi := segment(nf, p, s)
		end := min(width, hi-base)
		piece := out[col:end]
		held := false
		for i := 0; i < p; i++ {
			v, _ := x.slots[(s+i)%p].rows.Row(j)
			if v == nil {
				continue
			}
			if !held {
				copy(piece, v[col:end])
				held = true
				continue
			}
			for u, y := range v[col:end] {
				piece[u] = y + piece[u]
			}
		}
		col = end
	}
}

// segmentOf returns the segment of segment(n, p, ·) holding element e.
func segmentOf(n, p, e int) int {
	base, extra := n/p, n%p
	if e < extra*(base+1) {
		return e / (base + 1)
	}
	return extra + (e-extra*(base+1))/base
}
