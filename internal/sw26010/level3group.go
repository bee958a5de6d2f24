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
	// The one model: each rank trains its slice's rows in place, and
	// the final matrix is the result.
	model := append([]float64(nil), initial...)
	res := &Result{K: k, D: d, Assign: assign, Centroids: model}
	iters := newTimeline(maxIters)
	itersRan := 0      // written by rank 0 only, read after Run returns
	converged := false // written by rank 0 only, read after Run returns
	// The CG group's samples: batch b of an iteration is staged once
	// for all m' ranks, whose min-reduce of a batch separates its loads
	// and whose barrier separates its iterations.
	stage := dataset.NewStage(src, batch, n)
	batches := (n + batch - 1) / batch

	runErr := world.Run(func(c *mpi.Comm) error {
		pos := c.Rank()
		kLo, kHi := share(k, mPrime, pos)
		kLocal := kHi - kLo

		// This CG's mesh: 64 CPE goroutines under this MPI rank. The
		// mesh clocks start from the rank's clock so both time lines
		// agree.
		mesh := regcomm.NewMesh(spec, nil)
		mesh.SetObserver(opt.rec, fmt.Sprintf("cg%d/", pos))

		// Per-CPE persistent state across iterations. Every CPE's LDM
		// budget is checked here, before the first Mesh.Run: a CPE
		// that failed inside a run reaching the allreduce would leave
		// the other 63 waiting in it for ever.
		type cpeState struct {
			engine   *dma.Engine
			uLo, uHi int
			cents    []float64 // centroid stripes
			sums     []float64 // stripe sums of the samples this CG won
			part     []float64 // a batch's stripe-partial distances; nil for an empty stripe
		}
		states := make([]cpeState, machine.CPEsPerCG)
		for id := range states {
			uLo, uHi := share(d, machine.CPEsPerCG, id)
			dStripe := uHi - uLo
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
					return fmt.Errorf("CG %d CPE %d: %w", pos, id, err)
				}
			}
			st := cpeState{
				engine: engine.WithObserver(mesh.Unit(id)),
				uLo:    uLo, uHi: uHi,
				cents: make([]float64, kLocal*dStripe),
				sums:  make([]float64, kLocal*dStripe),
			}
			if dStripe > 0 {
				st.part = make([]float64, batch*kLocal)
			}
			states[id] = st
		}
		// Each CPE's share of the Update's centroid movement, summed in
		// CPE order so the total does not depend on scheduling.
		movements := make([]float64, machine.CPEsPerCG)
		counts := make([]int64, max(1, kLocal))
		vals := make([]float64, batch)
		ids := make([]int64, batch)
		cents := model[kLo*d : kHi*d]
		// A batch's distances to the local slice: CPE 0's view of the
		// mesh allreduce's result. The MPE reads it between runs, and
		// only the next run's allreduce replaces it.
		var dists []float64

		// The CPE phases of Algorithm 3. Each charges the CPE's clock,
		// DMA engine and span unit for its own work only, so the
		// virtual time depends on their order, not on how the mesh runs
		// group them.
		loadStripes := func(cp *regcomm.CPE, st *cpeState) {
			dStripe := st.uHi - st.uLo
			for j := 0; j < kLocal; j++ {
				copy(st.cents[j*dStripe:(j+1)*dStripe], cents[j*d+st.uLo:j*d+st.uHi])
			}
			st.engine.Charge(cp.Clock(), kLocal*dStripe)
			clear(st.sums)
		}
		// distances computes the stripe partials of the samples in rows
		// and enters the allreduce that sums them.
		distances := func(cp *regcomm.CPE, st *cpeState, rows []float64) error {
			dStripe, m := st.uHi-st.uLo, len(rows)/d
			if dStripe > 0 {
				// An empty stripe moves no bytes, and every partial
				// over it is +0, which the allreduce takes declared.
				for s := 0; s < m; s++ {
					st.engine.Charge(cp.Clock(), dStripe)
					core.SqDistRows(rows[s*d+st.uLo:s*d+st.uHi], st.cents, st.part[s*kLocal:(s+1)*kLocal])
				}
			}
			if dStripe > 0 && kLocal > 0 {
				t0 := cp.Clock().Now()
				cp.Clock().Advance(float64(m*kLocal*3*dStripe) / spec.CPU.FlopsPerCPE)
				mesh.Unit(cp.ID()).Record(obs.KindCompute, t0, cp.Clock().Now(), 0,
					int64(m)*int64(kLocal)*int64(3*dStripe))
			}
			if kLocal == 0 {
				return nil
			}
			var sum []float64
			var err error
			if dStripe == 0 {
				sum, err = cp.AllReduceZeros(m * kLocal)
			} else {
				sum, _, err = cp.AllReduceShared(st.part[:m*kLocal], nil)
			}
			if cp.ID() == 0 {
				dists = sum
			}
			return err
		}
		// accumulate adds the stripes of the samples in rows that this
		// CG won to the stripe sums.
		accumulate := func(cp *regcomm.CPE, st *cpeState, rows []float64) {
			dStripe, m := st.uHi-st.uLo, len(rows)/d
			//swlint:hot per-sample stripe accumulation
			for s := 0; s < m; s++ {
				w := int(ids[s])
				if w < kLo || w >= kHi {
					continue
				}
				row := st.sums[(w-kLo)*dStripe : (w-kLo+1)*dStripe]
				for u, v := range rows[s*d+st.uLo : s*d+st.uHi] {
					row[u] += v
				}
			}
			if dStripe > 0 {
				t0 := cp.Clock().Now()
				cp.Clock().Advance(float64(m*dStripe) / spec.CPU.FlopsPerCPE)
				mesh.Unit(cp.ID()).Record(obs.KindCompute, t0, cp.Clock().Now(), 0, int64(m)*int64(dStripe))
			}
		}
		// update moves the CPE's centroid stripes to their means and
		// writes them back into the rank's rows of the model.
		update := func(cp *regcomm.CPE, st *cpeState) {
			dStripe := st.uHi - st.uLo
			movements[cp.ID()] = core.ApplyUpdate(st.cents, st.sums, counts[:kLocal], dStripe)
			for j := 0; j < kLocal; j++ {
				copy(cents[j*d+st.uLo:j*d+st.uHi], st.cents[j*dStripe:(j+1)*dStripe])
			}
			st.engine.Charge(cp.Clock(), kLocal*dStripe)
		}

		for iter := 0; iter < maxIters; iter++ {
			clear(counts)
			var meshFail errOnce
			// One mesh run per batch b, plus one: run b first
			// accumulates batch b−1's winners (at b = 0 it loads the
			// stripes and zeroes the sums), then computes batch b's
			// partial distances (at b = batches, the Update). The MPE's
			// min-reduce of a batch falls between its distances and its
			// accumulation, which is where each run starts, so every
			// CPE clock still sees load, then distances, re-sync and
			// accumulation per batch, then the Update.
			var prev []float64 // batch b−1's samples
			for b := 0; b <= batches; b++ {
				var rows []float64
				m := 0
				if b < batches {
					base := b * batch
					m = min(batch, n-base)
					rows = stage.Load(iter, b, base, 1, m)
				}
				if b > 0 {
					// The min-reduce result gates the accumulation:
					// mesh clocks re-sync from the MPE.
					mesh.AdvanceTo(c.Clock().Now())
				}
				mesh.Run(func(cp *regcomm.CPE) {
					st := &states[cp.ID()]
					if b == 0 {
						loadStripes(cp, st)
					} else {
						accumulate(cp, st, prev)
					}
					if b == batches {
						update(cp, st)
					} else if err := distances(cp, st, rows); err != nil {
						meshFail.set(err)
					}
				})
				if err := meshFail.get(); err != nil {
					return err
				}
				if b == batches {
					break
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
						assign[b*batch+s] = int(ids[s])
					}
				}
				for s := 0; s < m; s++ {
					w := int(ids[s])
					if w >= kLo && w < kHi {
						counts[w-kLo]++
					}
				}
				prev = rows
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
		return nil
	})
	if runErr != nil {
		return nil, runErr
	}
	res.Iters = itersRan
	res.Converged = converged
	res.IterTimes = iters.deltas(res.Iters)
	return res, nil
}
