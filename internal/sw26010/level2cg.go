package sw26010

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dma"
	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/regcomm"
)

// RunLevel2CG runs Algorithm 2 on one core group at CPE granularity:
// the 64 CPEs form 64/mgroup groups of mgroup CPEs; each group
// partitions the centroid set across its members, every member reads
// each of the group's samples, partial argmins combine with a register
// min-reduce inside the group, and the Update step combines the
// per-slice sums across groups — all on the mesh buses.
//
// mgroup must be a power of two in [1, 64]: recursive doubling with
// partner id XOR step then always stays on a row bus (step < 8) or a
// column bus (step >= 8), which is what makes the hardware mapping
// legal.
func RunLevel2CG(spec *machine.Spec, src dataset.Source, initial []float64, mgroup, maxIters int, tolerance float64, opts ...Option) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt := applyOpts(opts)
	if mgroup < 1 || mgroup > machine.CPEsPerCG || mgroup&(mgroup-1) != 0 {
		return nil, fmt.Errorf("sw26010: mgroup must be a power of two in [1,64], got %d", mgroup)
	}
	n, d := src.N(), src.D()
	if len(initial) == 0 || len(initial)%d != 0 {
		return nil, fmt.Errorf("sw26010: initial centroid matrix size %d not a positive multiple of d=%d", len(initial), d)
	}
	if maxIters < 1 {
		return nil, fmt.Errorf("sw26010: max iterations must be at least 1, got %d", maxIters)
	}
	k := len(initial) / d
	if err := ldm.CheckLevel2(spec, k, d, mgroup); err != nil {
		return nil, err
	}

	mesh := regcomm.NewMesh(spec, nil)
	mesh.SetObserver(opt.rec, "")
	engine, err := dma.New(spec, nil)
	if err != nil {
		return nil, err
	}
	if opt.inj != nil {
		engine = engine.WithFaults(opt.inj, opt.cg)
	}

	mainCents := append([]float64(nil), initial...)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, D: d, Assign: assign}
	groups := machine.CPEsPerCG / mgroup

	var runFail errOnce
	fail := runFail.set
	iters := newTimeline(maxIters)

	mesh.Run(func(c *regcomm.CPE) {
		unit := mesh.Unit(c.ID())
		engine := engine.WithObserver(unit)
		group := c.ID() / mgroup
		member := c.ID() % mgroup
		kLo, kHi := share(k, mgroup, member)
		kLocal := kHi - kLo

		// LDM working set: one sample, the centroid slice, the slice
		// sums and counters.
		alloc := ldm.NewAllocator(spec.LDMBytesPerCPE)
		for _, buf := range []struct {
			name  string
			elems int
		}{
			{"sample", d},
			{"slice", max(1, kLocal) * d},
			{"sums", max(1, kLocal) * d},
			{"counts", max(1, kLocal)},
		} {
			if err := alloc.AllocFloats(buf.name, buf.elems); err != nil {
				fail(fmt.Errorf("CPE %d: %w", c.ID(), err))
				return
			}
		}
		sample := make([]float64, d)
		cents := make([]float64, kLocal*d)
		sums := make([]float64, kLocal*d)
		counts := make([]int64, kLocal)
		// Scratch payloads for the per-sample min-reduce; Send copies,
		// so one pair serves every exchange.
		redF := make([]float64, 1)
		redI := make([]int64, 1)
		slow := opt.slowdown(c.ID())

		lo, hi := share(n, groups, group)
		for iter := 0; iter < maxIters; iter++ {
			// Load this CPE's centroid slice.
			if kLocal > 0 {
				if err := engine.Get(c.Clock(), cents, mainCents[kLo*d:kHi*d]); err != nil {
					fail(err)
					return
				}
			}
			for i := range sums {
				sums[i] = 0
			}
			for j := range counts {
				counts[j] = 0
			}
			//swlint:hot per-sample loop: partial argmin plus group min-reduce
			for i := lo; i < hi; i++ {
				src.Sample(i, sample)
				//swlint:ignore hot-path-alloc -- DMA span tracing appends to the unit's span buffer; growth is amortized and only the observed run pays it
				engine.Charge(c.Clock(), d)
				// Partial argmin over the local slice.
				bestJ, bestD := core.NearestSlice(sample, cents, d, kLo, k)
				if kLocal > 0 {
					t0 := c.Clock().Now()
					c.Clock().AdvanceScaled(float64(d*3*kLocal)/spec.CPU.FlopsPerCPE, slow)
					//swlint:ignore hot-path-alloc -- span recording appends to the unit's span buffer; growth is amortized and only the observed run pays it
					unit.Record(obs.KindCompute, t0, c.Clock().Now(), 0, int64(d)*int64(3*kLocal))
				}
				// a(i) = min a(i)': min-reduce within the group.
				//swlint:ignore hot-path-alloc -- the exchange itself is allocation-free (caller-owned scratch); Send's span tracing appends to the amortized span buffer
				wJ, _, err := minReduceGroup(c, mgroup, bestJ, bestD, redF, redI)
				if err != nil {
					fail(err)
					return
				}
				if member == 0 {
					assign[i] = wJ
				}
				if wJ >= kLo && wJ < kHi {
					row := sums[(wJ-kLo)*d : (wJ-kLo+1)*d]
					for u := 0; u < d; u++ {
						row[u] += sample[u]
					}
					counts[wJ-kLo]++
					t0 := c.Clock().Now()
					c.Clock().AdvanceScaled(float64(d)/spec.CPU.FlopsPerCPE, slow)
					//swlint:ignore hot-path-alloc -- span recording appends to the unit's span buffer; growth is amortized and only the observed run pays it
					unit.Record(obs.KindCompute, t0, c.Clock().Now(), 0, int64(d))
				}
			}
			// Combine slice sums across the groups: recursive doubling
			// over the CPEs holding the same slice (ids member,
			// member+mgroup, ...).
			for step := mgroup; step < machine.CPEsPerCG; step *= 2 {
				partner := c.ID() ^ step
				if err := c.Send(partner, sums, counts); err != nil {
					fail(err)
					return
				}
				dd, ii, err := c.Recv(partner)
				if err != nil {
					fail(err)
					return
				}
				if len(dd) != len(sums) || len(ii) != len(counts) {
					fail(fmt.Errorf("sw26010: slice combine payload mismatch on CPE %d", c.ID()))
					return
				}
				for j, v := range dd {
					sums[j] += v
				}
				for j, v := range ii {
					counts[j] += v
				}
			}
			// Every slice holder derives identical new slice means.
			movement := core.ApplyUpdate(cents, sums, counts, d)
			// Group 0's members write their slices back, then the mesh
			// synchronizes and agrees on total movement.
			if group == 0 && kLocal > 0 {
				if err := engine.Put(c.Clock(), mainCents[kLo*d:kHi*d], cents); err != nil {
					fail(err)
					return
				}
			}
			mv := []float64{0}
			if group == 0 {
				mv[0] = movement
			}
			if err := c.AllReduce(mv, nil); err != nil {
				fail(err)
				return
			}
			iters.record(iter, c.Clock().Now())
			if c.ID() == 0 {
				res.Iters = iter + 1
			}
			if mv[0] <= tolerance*tolerance {
				if c.ID() == 0 {
					res.Converged = true
				}
				break
			}
		}
	})
	mesh.FinishObserved()
	if err := runFail.get(); err != nil {
		return nil, err
	}
	res.Centroids = mainCents
	res.IterTimes = iters.deltas(res.Iters)
	return res, nil
}

// minReduceGroup combines (index, distance) pairs across the mgroup
// CPEs starting at base under mpi.MinPairLess's order (the minimum
// distance, ties to the lowest index), identically on every member.
// Recursive doubling: partners differ in one bit, so every exchange
// stays on a row or column bus. fbuf and ibuf are caller-owned
// 1-element scratch payloads (Send copies), keeping the per-sample
// path allocation-free.
func minReduceGroup(c *regcomm.CPE, mgroup, j int, dist float64, fbuf []float64, ibuf []int64) (int, float64, error) {
	for step := 1; step < mgroup; step *= 2 {
		partner := c.ID() ^ step
		fbuf[0], ibuf[0] = dist, int64(j)
		if err := c.Send(partner, fbuf, ibuf); err != nil {
			return 0, 0, err
		}
		dd, ii, err := c.Recv(partner)
		if err != nil {
			return 0, 0, err
		}
		if len(dd) != 1 || len(ii) != 1 {
			return 0, 0, fmt.Errorf("sw26010: min-reduce payload mismatch on CPE %d", c.ID())
		}
		if mpi.MinPairLess(dd[0], ii[0], dist, int64(j)) {
			dist, j = dd[0], int(ii[0])
		}
	}
	return j, dist, nil
}
