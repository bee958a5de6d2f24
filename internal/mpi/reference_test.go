package mpi

import (
	"fmt"

	"repro/internal/ldm"
)

// The point-to-point reference: the collectives as they ran before the
// rendezvous, one packet per protocol edge through the unexported
// packet path (sendPacket, recvFull) and Comm.nextTag, so their fault
// rolls, retries, crashes and poison are the production arithmetic the
// rendezvous replays. TestCollectivesMatchPointToPoint and
// FuzzCollectives hold the rendezvous to them.

// nextTag mints the tag of the reference's next collective step.
func (c *Comm) nextTag() uint64 {
	c.seq++
	return collectiveTag(c.id, c.seq)
}

// refHook, when set, is called at every message boundary of the
// reference with the rank's clock: the crash-at-every-boundary plans
// are built from it. Tests set it before Run and clear it after.
var refHook func(c *Comm)

// refSend is the poison-aware protocol send: a clean rank transmits a
// copy of the payload, a poisoned rank transmits the failure marker on
// the same edge.
func refSend(c *Comm, st *opState, dst int, tag uint64, data []float64, ints []int64) error {
	if refHook != nil {
		refHook(c)
	}
	if st.fail != nil {
		return c.sendPacket(dst, tag, nil, nil, st.fail)
	}
	return c.sendPacket(dst, tag, clonePayload(data), clonePayload(ints), nil)
}

// refForward is refSend for a payload nobody writes again, a
// broadcast's: the packet carries the slices as they are.
func refForward(c *Comm, st *opState, dst int, tag uint64, data []float64, ints []int64) error {
	if refHook != nil {
		refHook(c)
	}
	if st.fail != nil {
		return c.sendPacket(dst, tag, nil, nil, st.fail)
	}
	return c.sendPacket(dst, tag, data, ints, nil)
}

// refRecv is the poison-aware protocol receive: poison packets and
// detected crashes fold into st (returning nil payloads) while hard
// errors — the caller's own crash — propagate.
func refRecv(c *Comm, st *opState, src int, tag uint64) ([]float64, []int64, error) {
	if refHook != nil {
		refHook(c)
	}
	d, i, fail, err := c.recvFull(src, tag)
	if err != nil {
		return nil, nil, err
	}
	if fail != nil {
		st.merge(fail)
		return nil, nil, nil
	}
	return d, i, nil
}

// refBarrier is the dissemination barrier.
func refBarrier(c *Comm) error {
	u, m := c.obsBegin()
	err := func() error {
		st := &opState{}
		for step := 1; step < c.size; step *= 2 {
			tag := c.nextTag()
			to := (c.rank + step) % c.size
			from := (c.rank - step + c.size) % c.size
			if err := refSend(c, st, to, tag, nil, nil); err != nil {
				return err
			}
			if _, _, err := refRecv(c, st, from, tag); err != nil {
				return err
			}
		}
		return st.err()
	}()
	c.obsEnd(u, m, "mpi:barrier", 0)
	return err
}

// refBcastOp is the poison-aware binomial broadcast body: the root
// copies its payload once and every other rank forwards what it
// received.
func refBcastOp(c *Comm, st *opState, root int, data []float64, ints []int64) ([]float64, []int64, error) {
	if root < 0 || root >= c.size {
		return nil, nil, fmt.Errorf("mpi: bcast root %d out of range", root)
	}
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	if rel == 0 && st.fail == nil {
		data, ints = clonePayload(data), clonePayload(ints)
	}
	mask := 1
	for mask < c.size {
		if rel&mask != 0 {
			src := (c.rank - mask + c.size) % c.size
			d, i, err := refRecv(c, st, src, tag)
			if err != nil {
				return nil, nil, err
			}
			data, ints = d, i
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < c.size && rel&(mask-1) == 0 && rel&mask == 0 {
			dst := (c.rank + mask) % c.size
			if err := refForward(c, st, dst, tag, data, ints); err != nil {
				return nil, nil, err
			}
		}
	}
	return data, ints, nil
}

// refBcastInto is refBcastOp copying the payload into the caller's
// buffers on non-root ranks.
func refBcastInto(c *Comm, st *opState, root int, data []float64, ints []int64) error {
	d, i, err := refBcastOp(c, st, root, data, ints)
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

// refBcast is Bcast: every member returns the payload it took, the
// root its own, and nil on error.
func refBcast(c *Comm, root int, data []float64, ints []int64) ([]float64, []int64, error) {
	u, m := c.obsBegin()
	st := &opState{}
	if c.rank != root {
		data, ints = nil, nil
	}
	data, ints, err := refBcastOp(c, st, root, data, ints)
	if err == nil {
		err = st.err()
	}
	if err != nil {
		data, ints = nil, nil
	}
	c.obsEnd(u, m, "mpi:bcast", int64((len(data)+len(ints))*ldm.ElemBytes))
	return data, ints, err
}

// refReduceOp is the poison-aware binomial reduce body.
func refReduceOp(c *Comm, st *opState, root int, data []float64, ints []int64) error {
	tag := c.nextTag()
	rel := (c.rank - root + c.size) % c.size
	for mask := 1; mask < c.size; mask <<= 1 {
		if rel&mask != 0 {
			dst := (c.rank - mask + c.size) % c.size
			return refSend(c, st, dst, tag, data, ints)
		}
		if rel+mask < c.size {
			src := (c.rank + mask) % c.size
			d, i, err := refRecv(c, st, src, tag)
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

// refAllReduceSum is AllReduceSum: reduce to rank 0, then broadcast.
func refAllReduceSum(c *Comm, data []float64, ints []int64) error {
	u, m := c.obsBegin()
	err := func() error {
		if c.size == 1 {
			return c.checkSelfCrash()
		}
		st := &opState{}
		if err := refReduceOp(c, st, 0, data, ints); err != nil {
			return err
		}
		if err := refBcastInto(c, st, 0, data, ints); err != nil {
			return err
		}
		return st.err()
	}()
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

// refAllReduceMinPairs is AllReduceMinPairs: binomial min-reduce to
// rank 0, then broadcast.
func refAllReduceMinPairs(c *Comm, vals []float64, idxs []int64) error {
	u, m := c.obsBegin()
	err := func() error {
		if len(vals) != len(idxs) {
			return fmt.Errorf("mpi: min-pairs length mismatch %d vs %d", len(vals), len(idxs))
		}
		if c.size == 1 {
			return c.checkSelfCrash()
		}
		st := &opState{}
		tag := c.nextTag()
		for mask := 1; mask < c.size; mask <<= 1 {
			if c.rank&mask != 0 {
				if err := refSend(c, st, c.rank-mask, tag, vals, idxs); err != nil {
					return err
				}
				break
			}
			if c.rank+mask < c.size {
				d, i, err := refRecv(c, st, c.rank+mask, tag)
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
		if err := refBcastInto(c, st, 0, vals, idxs); err != nil {
			return err
		}
		return st.err()
	}()
	c.obsEnd(u, m, "mpi:minpairs", int64((len(vals)+len(idxs))*ldm.ElemBytes))
	return err
}

// refAllGatherIntsShared is Split's gather: gather to rank 0, then
// broadcast the table, which every rank shares.
func refAllGatherIntsShared(c *Comm, contrib []int64) ([]int64, error) {
	n := len(contrib)
	if c.size == 1 {
		if err := c.checkSelfCrash(); err != nil {
			return nil, err
		}
		return contrib, nil
	}
	st := &opState{}
	tag := c.nextTag()
	var all []int64
	if c.rank == 0 {
		all = make([]int64, n*c.size)
		copy(all, contrib)
		for src := 1; src < c.size; src++ {
			_, i, err := refRecv(c, st, src, tag)
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
	} else if err := refSend(c, st, 0, tag, nil, contrib); err != nil {
		return nil, err
	}
	_, all, err := refBcastOp(c, st, 0, nil, all)
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

// refAllReduceSumRing is AllReduceSumRing: reduce-scatter, then
// allgather, around the ring.
func refAllReduceSumRing(c *Comm, data []float64, ints []int64) error {
	u, m := c.obsBegin()
	err := refRing(c, data, ints)
	c.obsEnd(u, m, "mpi:allreduce", int64((len(data)+len(ints))*ldm.ElemBytes))
	return err
}

func refRing(c *Comm, data []float64, ints []int64) error {
	p := c.size
	if p == 1 {
		return c.checkSelfCrash()
	}
	st := &opState{}
	next := (c.rank + 1) % p
	prev := (c.rank - 1 + p) % p
	segF := func(s int) (int, int) { return segment(len(data), p, s) }
	segI := func(s int) (int, int) { return segment(len(ints), p, s) }
	for t := 0; t < p-1; t++ {
		tag := c.nextTag()
		sendSeg := mod(c.rank-t, p)
		recvSeg := mod(c.rank-t-1, p)
		fLo, fHi := segF(sendSeg)
		iLo, iHi := segI(sendSeg)
		if err := refSend(c, st, next, tag, data[fLo:fHi], ints[iLo:iHi]); err != nil {
			return err
		}
		d, ii, err := refRecv(c, st, prev, tag)
		if err != nil {
			return err
		}
		if st.fail == nil {
			fLo, fHi = segF(recvSeg)
			iLo, iHi = segI(recvSeg)
			if len(d) != fHi-fLo || len(ii) != iHi-iLo {
				return fmt.Errorf("mpi: ring reduce-scatter segment mismatch on rank %d step %d", c.rank, t)
			}
			for j, v := range d {
				data[fLo+j] += v
			}
			for j, v := range ii {
				ints[iLo+j] += v
			}
		}
	}
	for t := 0; t < p-1; t++ {
		tag := c.nextTag()
		sendSeg := mod(c.rank-t+1, p)
		recvSeg := mod(c.rank-t, p)
		fLo, fHi := segF(sendSeg)
		iLo, iHi := segI(sendSeg)
		if err := refSend(c, st, next, tag, data[fLo:fHi], ints[iLo:iHi]); err != nil {
			return err
		}
		d, ii, err := refRecv(c, st, prev, tag)
		if err != nil {
			return err
		}
		if st.fail == nil {
			fLo, fHi = segF(recvSeg)
			iLo, iHi = segI(recvSeg)
			if len(d) != fHi-fLo || len(ii) != iHi-iLo {
				return fmt.Errorf("mpi: ring allgather segment mismatch on rank %d step %d", c.rank, t)
			}
			copy(data[fLo:fHi], d)
			copy(ints[iLo:iHi], ii)
		}
	}
	return st.err()
}
