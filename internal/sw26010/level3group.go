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

// RunLevel3Group is the complete Algorithm 3 at full granularity:
// mPrime core groups — each simulated as 64 CPE goroutines on its own
// register-communication mesh — form one CG group that partitions the
// centroid set, every CG holds its centroid slice striped across its
// CPEs by dimension, stripe-partial distances combine on the mesh,
// the group min-reduce (a(i) = min a(i)') runs over MPI between the
// CGs' managing processing elements, and the Update step needs no
// inter-CG sum exchange because each CG owns its slice outright (one
// CG group means the dataflow is not partitioned further).
//
// This is the finest-grained reference of the paper's contribution:
// all three partition dimensions realized on the actual substrates.
// The coarse engine in internal/core is the scalable equivalent; the
// test suite checks both produce sequential Lloyd's clustering.
func RunLevel3Group(spec *machine.Spec, src dataset.Source, initial []float64, mPrime, batch, maxIters int, tolerance float64, opts ...Option) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt := applyOpts(opts)
	if mPrime < 1 || mPrime > spec.CGs() {
		return nil, fmt.Errorf("sw26010: m'group must be in [1,%d], got %d", spec.CGs(), mPrime)
	}
	if batch < 1 {
		return nil, fmt.Errorf("sw26010: batch must be at least 1, got %d", batch)
	}
	if maxIters < 1 {
		return nil, fmt.Errorf("sw26010: max iterations must be at least 1, got %d", maxIters)
	}
	n, d := src.N(), src.D()
	if len(initial) == 0 || len(initial)%d != 0 {
		return nil, fmt.Errorf("sw26010: initial centroid matrix size %d not a positive multiple of d=%d", len(initial), d)
	}
	k := len(initial) / d
	if err := ldm.CheckLevel3(spec, k, d, mPrime); err != nil {
		return nil, err
	}

	world, err := mpi.NewWorld(spec, nil, mPrime)
	if err != nil {
		return nil, err
	}
	world.SetObserver(opt.rec)
	engine, err := dma.New(spec, nil)
	if err != nil {
		return nil, err
	}

	assign := make([]int, n)
	res := &Result{K: k, D: d, Assign: assign}
	finalCents := make([]float64, k*d)
	slices := make([][]float64, mPrime)
	iters := newTimeline(maxIters)
	itersRan := 0      // written by rank 0 only, read after Run returns
	converged := false // written by rank 0 only, read after Run returns

	runErr := world.Run(func(c *mpi.Comm) error {
		pos := c.Rank()
		kLo, kHi := share(k, mPrime, pos)
		kLocal := kHi - kLo

		// This CG's mesh: 64 CPE goroutines under this MPI rank. The
		// mesh clocks start from the rank's clock so both time lines
		// agree.
		mesh := regcomm.NewMesh(spec, nil)
		mesh.SetObserver(opt.rec, fmt.Sprintf("cg%d/", pos))

		// Per-CPE persistent state across iterations, prepared by the
		// mesh kernel on first use: centroid stripes, stripe sums and
		// the batch's stripe-partial distances.
		type cpeState struct {
			cents []float64
			sums  []float64
			part  []float64
		}
		states := make([]*cpeState, machine.CPEsPerCG)
		// Each CPE's share of the Update's centroid movement, summed in
		// CPE order so the total does not depend on scheduling.
		movements := make([]float64, machine.CPEsPerCG)
		counts := make([]int64, max(1, kLocal))
		// Full distance matrix for one batch against the local slice,
		// assembled by the mesh allreduce (identical on every CPE; the
		// MPE reads it afterwards).
		dists := make([]float64, batch*max(1, kLocal))
		// The batch's samples, generated once per CG: every CPE reads
		// its stripe of each sample from here, in both mesh phases.
		stage := make([]float64, batch*d)
		vals := make([]float64, batch)
		ids := make([]int64, batch)

		cents := append([]float64(nil), initial[kLo*d:kHi*d]...)

		for iter := 0; iter < maxIters; iter++ {
			for j := range counts {
				counts[j] = 0
			}
			var meshFail errOnce
			fail := meshFail.set
			// Phase A (on the mesh): load stripes, zero sums.
			mesh.Run(func(cp *regcomm.CPE) {
				engine := engine.WithObserver(mesh.Unit(cp.ID()))
				uLo, uHi := share(d, machine.CPEsPerCG, cp.ID())
				dStripe := uHi - uLo
				st := states[cp.ID()]
				if st == nil {
					alloc := ldm.NewAllocator(spec.LDMBytesPerCPE)
					for _, buf := range []struct {
						name  string
						elems int
					}{
						{"stripe-stream", max(1, batch*dStripe)},
						{"centroid-stripes", max(1, kLocal*dStripe)},
						{"sum-stripes", max(1, kLocal*dStripe)},
						{"counts", max(1, kLocal)},
						{"dist-partials", batch * max(1, kLocal)},
					} {
						if err := alloc.AllocFloats(buf.name, buf.elems); err != nil {
							fail(fmt.Errorf("CG %d CPE %d: %w", pos, cp.ID(), err))
							return
						}
					}
					st = &cpeState{
						cents: make([]float64, kLocal*dStripe),
						sums:  make([]float64, kLocal*dStripe),
						part:  make([]float64, batch*max(1, kLocal)),
					}
					states[cp.ID()] = st
				}
				for j := 0; j < kLocal; j++ {
					copy(st.cents[j*dStripe:(j+1)*dStripe], cents[j*d+uLo:j*d+uHi])
				}
				engine.Charge(cp.Clock(), kLocal*dStripe)
				for i := range st.sums {
					st.sums[i] = 0
				}
			})
			if err := meshFail.get(); err != nil {
				return err
			}

			// Batches: the MPE stages the samples, the mesh computes
			// full local distances, the MPE min-reduces across the group
			// over MPI, the mesh accumulates the winners' stripes.
			for base := 0; base < n; base += batch {
				m := min(batch, n-base)
				for s := 0; s < m; s++ {
					src.Sample(base+s, stage[s*d:(s+1)*d])
				}
				mesh.Run(func(cp *regcomm.CPE) {
					unit := mesh.Unit(cp.ID())
					engine := engine.WithObserver(unit)
					uLo, uHi := share(d, machine.CPEsPerCG, cp.ID())
					dStripe := uHi - uLo
					st := states[cp.ID()]
					part := st.part[:m*max(1, kLocal)]
					if dStripe == 0 {
						// Every partial over an empty stripe is +0, and
						// an empty stripe moves no bytes.
						clear(part)
					} else {
						for s := 0; s < m; s++ {
							engine.Charge(cp.Clock(), dStripe)
							core.SqDistRows(stage[s*d+uLo:s*d+uHi], st.cents, part[s*kLocal:(s+1)*kLocal])
						}
					}
					if dStripe > 0 && kLocal > 0 {
						t0 := cp.Clock().Now()
						cp.Clock().Advance(float64(m*kLocal*3*dStripe) / spec.CPU.FlopsPerCPE)
						unit.Record(obs.KindCompute, t0, cp.Clock().Now(), 0,
							int64(m)*int64(kLocal)*int64(3*dStripe))
					}
					if kLocal > 0 {
						if err := cp.AllReduce(part, nil); err != nil {
							fail(err)
							return
						}
					}
					if cp.ID() == 0 {
						copy(dists[:m*max(1, kLocal)], part)
					}
				})
				if err := meshFail.get(); err != nil {
					return err
				}
				// MPE: local argmin per sample, then the group
				// min-reduce over MPI. The MPE continues from the
				// mesh's completion time.
				c.Clock().AdvanceTo(mesh.MaxTime())
				for s := 0; s < m; s++ {
					j, dist := core.NearestSliceDists(dists[s*kLocal:(s+1)*kLocal], kLo, k)
					vals[s] = dist
					ids[s] = int64(j)
				}
				if err := c.AllReduceMinPairs(vals[:m], ids[:m]); err != nil {
					return err
				}
				if pos == 0 {
					for s := 0; s < m; s++ {
						assign[base+s] = int(ids[s])
					}
				}
				for s := 0; s < m; s++ {
					w := int(ids[s])
					if w >= kLo && w < kHi {
						counts[w-kLo]++
					}
				}
				// Mesh accumulates the stripes of samples this CG won;
				// mesh clocks re-sync from the MPE (the min-reduce
				// result gates the accumulation).
				mesh.AdvanceTo(c.Clock().Now())
				mesh.Run(func(cp *regcomm.CPE) {
					unit := mesh.Unit(cp.ID())
					uLo, uHi := share(d, machine.CPEsPerCG, cp.ID())
					dStripe := uHi - uLo
					st := states[cp.ID()]
					//swlint:hot per-sample stripe accumulation
					for s := 0; s < m; s++ {
						w := int(ids[s])
						if w < kLo || w >= kHi {
							continue
						}
						row := st.sums[(w-kLo)*dStripe : (w-kLo+1)*dStripe]
						for u, v := range stage[s*d+uLo : s*d+uHi] {
							row[u] += v
						}
					}
					if dStripe > 0 {
						t0 := cp.Clock().Now()
						cp.Clock().Advance(float64(m*dStripe) / spec.CPU.FlopsPerCPE)
						unit.Record(obs.KindCompute, t0, cp.Clock().Now(), 0, int64(m)*int64(dStripe))
					}
				})
				if err := meshFail.get(); err != nil {
					return err
				}
			}

			// Update (on the mesh): every CPE owns its stripes; write
			// the new slice back into the rank's centroid buffer.
			mesh.Run(func(cp *regcomm.CPE) {
				engine := engine.WithObserver(mesh.Unit(cp.ID()))
				uLo, uHi := share(d, machine.CPEsPerCG, cp.ID())
				dStripe := uHi - uLo
				st := states[cp.ID()]
				// The stripe copy still holds this iteration's centroids,
				// so updating it and copying it back is the update of
				// the rank's buffer.
				movements[cp.ID()] = core.ApplyUpdate(st.cents, st.sums, counts[:kLocal], dStripe)
				for j := 0; j < kLocal; j++ {
					copy(cents[j*d+uLo:j*d+uHi], st.cents[j*dStripe:(j+1)*dStripe])
				}
				engine.Charge(cp.Clock(), kLocal*dStripe)
			})
			if err := meshFail.get(); err != nil {
				return err
			}
			movement := 0.0
			for _, v := range movements {
				movement += v
			}
			c.Clock().AdvanceTo(mesh.MaxTime())

			// Convergence across slices.
			mv := []float64{movement}
			if err := c.AllReduceSum(mv, nil); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			iters.record(iter, c.Clock().Now())
			if pos == 0 {
				itersRan = iter + 1
			}
			if mv[0] <= tolerance*tolerance {
				if pos == 0 {
					converged = true
				}
				break
			}
		}
		mesh.FinishObserved()
		c.Obs().Finish(c.Clock().Now())
		slices[pos] = cents
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	for pos := 0; pos < mPrime; pos++ {
		kLo, _ := share(k, mPrime, pos)
		copy(finalCents[kLo*d:], slices[pos])
	}
	res.Centroids = finalCents
	res.Iters = itersRan
	res.Converged = converged
	res.IterTimes = iters.deltas(res.Iters)
	return res, nil
}
