package mpi

import "repro/internal/ldm"

// ringThresholdElems selects AllReduceRows' algorithm: dense payloads
// of at least this many elements use the bandwidth-optimal ring,
// smaller ones the latency-optimal binomial reduce+broadcast. The
// Update step of the k-means engines crosses this boundary as k·d
// grows, exactly the regime split real MPI libraries implement. The
// two algorithms associate additions differently, so they are not
// bitwise interchangeable with each other.
const ringThresholdElems = 1 << 16

// AllReduceSumRing sums data and ints element-wise across all ranks
// with the bandwidth-optimal ring algorithm: a reduce-scatter phase
// (p-1 steps, each moving one 1/p segment around the ring while
// accumulating) followed by an allgather phase (p-1 steps broadcasting
// the finished segments). Every rank transfers about 2·(p-1)/p of the
// payload regardless of p, versus 2·log2(p) payloads for the binomial
// algorithm — the classic large-message trade.
func (c *Comm) AllReduceSumRing(data []float64, ints []int64) error {
	u, m := c.obsBegin()
	err := c.collective(opRing, 0, data, ints)
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// ring replays the ring allreduce. In reduce-scatter step t member r
// sends segment r-t to r+1 and adds segment r-t-1 from r-1 into its
// own; after p-1 steps it holds the reduced segment r+1, and in
// allgather step t it sends segment r-t+1 and copies segment r-t. Each
// step is one exchange: a member reads and writes different segments
// within a step, so taking every payload from the sender's buffer in
// place reads what the sender sent. A failure travels one hop per step
// as poison, so the 2(p-1) steps reach every survivor. A row allreduce
// replays only the edges, with the dense lengths, and folds its
// partials afterwards (ringRow).
func (x *call) ring(w *World) {
	p := len(x.slots)
	nf, ni := x.slots[x.first()].shape()
	fold := x.op == opRing
	elems := func(s int) int {
		fLo, fHi := segment(nf, p, s)
		iLo, iHi := segment(ni, p, s)
		return fHi - fLo + iHi - iLo
	}
	next := func(r int) int { return (r + 1) % p }
	for t := 0; t < p-1; t++ {
		var add func(r, from int)
		if fold {
			add = func(r, from int) {
				dst, src := &x.slots[r], &x.slots[from]
				fLo, fHi := segment(nf, p, mod(r-t-1, p))
				iLo, iHi := segment(ni, p, mod(r-t-1, p))
				for j := fLo; j < fHi; j++ {
					dst.data[j] += src.data[j]
				}
				for j := iLo; j < iHi; j++ {
					dst.ints[j] += src.ints[j]
				}
			}
		}
		x.exchange(w, next, func(r int) int { return elems(mod(r-t, p)) }, add)
	}
	for t := 0; t < p-1; t++ {
		var take func(r, from int)
		if fold {
			take = func(r, from int) {
				dst, src := &x.slots[r], &x.slots[from]
				fLo, fHi := segment(nf, p, mod(r-t, p))
				iLo, iHi := segment(ni, p, mod(r-t, p))
				copy(dst.data[fLo:fHi], src.data[fLo:fHi])
				copy(dst.ints[iLo:iHi], src.ints[iLo:iHi])
			}
		}
		x.exchange(w, next, func(r int) int { return elems(mod(r-t+1, p)) }, take)
	}
}

// segment splits n elements into p near-equal contiguous segments and
// returns segment s as a half-open range.
func segment(n, p, s int) (int, int) {
	base := n / p
	extra := n % p
	lo := s*base + min(s, extra)
	hi := lo + base
	if s < extra {
		hi++
	}
	return lo, hi
}

func mod(a, p int) int { return ((a % p) + p) % p }
