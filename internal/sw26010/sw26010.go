// Package sw26010 executes k-means at full CPE granularity on one
// simulated core group: 64 CPE goroutines, explicit LDM buffer
// allocation against the 64 KB budget, per-chunk DMA streaming and a
// real register-communication allreduce over the 8x8 mesh.
//
// The large-scale engines in internal/core simulate the CPEs of a CG
// inside one goroutine with closed-form cost charging — that is what
// makes 16,384-CG runs tractable. This package is the fine-grained
// reference implementation of Algorithm 1 on the substrates
// themselves; the test suite uses it to validate that the coarse CG
// executor produces the same clustering and a consistent virtual-time
// profile.
package sw26010

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dma"
	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/regcomm"
)

// Result reports a single-CG fine-grained run.
type Result struct {
	Centroids []float64
	Assign    []int
	K, D      int
	Iters     int
	Converged bool
	// IterTimes is the simulated completion time of each iteration:
	// the maximum CPE clock delta across the mesh.
	IterTimes []float64
}

// RunLevel1CG runs Algorithm 1 on one core group: the dataflow is
// partitioned across the 64 CPEs, every CPE keeps the full centroid
// set resident in its LDM (constraint C1 is enforced by actually
// allocating the buffers), samples stream through a double-buffered
// DMA chunk, and the Update step's two AllReduce operations run as
// real register communication on the mesh.
func RunLevel1CG(spec *machine.Spec, src dataset.Source, initial []float64, maxIters int, tolerance float64, opts ...Option) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opt := applyOpts(opts)
	n, d := src.N(), src.D()
	if len(initial) == 0 || len(initial)%d != 0 {
		return nil, fmt.Errorf("sw26010: initial centroid matrix size %d not a positive multiple of d=%d", len(initial), d)
	}
	if maxIters < 1 {
		return nil, fmt.Errorf("sw26010: max iterations must be at least 1, got %d", maxIters)
	}
	k := len(initial) / d
	if err := ldm.CheckLevel1(spec, k, d); err != nil {
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

	// Shared "main memory": the centroid matrix CPE 0 writes back each
	// iteration. Guarded by a phase barrier below, so no mutex is
	// needed for the data itself.
	mainCents := append([]float64(nil), initial...)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, D: d, Assign: assign}

	// chunk is how many samples one stream buffer holds; sized so the
	// full working set honours the LDM budget.
	chunk := chunkSamples(spec, k, d)
	if chunk < 1 {
		return nil, fmt.Errorf("sw26010: no LDM budget left for sample streaming at k=%d d=%d", k, d)
	}

	var runFail errOnce
	fail := runFail.set
	iters := newTimeline(maxIters)

	mesh.Run(func(c *regcomm.CPE) {
		unit := mesh.Unit(c.ID())
		engine := engine.WithObserver(unit)
		// Explicit LDM allocation: one whole sample chunk, the full
		// centroid set, the accumulated vector sums and the counters —
		// exactly the working set of constraint C1.
		alloc := ldm.NewAllocator(spec.LDMBytesPerCPE)
		for _, buf := range []struct {
			name  string
			elems int
		}{
			{"stream", chunk * d},
			{"centroids", k * d},
			{"sums", k * d},
			{"counts", k},
		} {
			if err := alloc.AllocFloats(buf.name, buf.elems); err != nil {
				fail(fmt.Errorf("CPE %d: %w", c.ID(), err))
				return
			}
		}
		stream := make([]float64, chunk*d)
		cents := make([]float64, k*d)
		sums := make([]float64, k*d)
		counts := make([]int64, k)
		slow := opt.slowdown(c.ID())

		lo, hi := share(n, machine.CPEsPerCG, c.ID())
		for iter := 0; iter < maxIters; iter++ {
			// Load the centroid set from main memory.
			if err := engine.Get(c.Clock(), cents, mainCents); err != nil {
				fail(err)
				return
			}
			for i := range sums {
				sums[i] = 0
			}
			for j := range counts {
				counts[j] = 0
			}
			// Stream owned samples chunk by chunk.
			for base := lo; base < hi; base += chunk {
				m := min(chunk, hi-base)
				for s := 0; s < m; s++ {
					src.Sample(base+s, stream[s*d:(s+1)*d])
				}
				engine.Charge(c.Clock(), m*d)
				//swlint:hot per-sample CPE compute loop (Algorithm 1 lines 9-13)
				for s := 0; s < m; s++ {
					x := stream[s*d : (s+1)*d]
					// Seeded with the previous assignment, which only
					// this CPE writes.
					best, _ := core.Nearest(x, cents, d, assign[base+s])
					assign[base+s] = best
					row := sums[best*d : (best+1)*d]
					for u := 0; u < d; u++ {
						row[u] += x[u]
					}
					counts[best]++
				}
				t0 := c.Clock().Now()
				c.Clock().AdvanceScaled(float64(m*d*(3*k+1))/spec.CPU.FlopsPerCPE, slow)
				unit.Record(obs.KindCompute, t0, c.Clock().Now(), 0, int64(m*d)*int64(3*k+1))
			}
			// The two AllReduce operations of Algorithm 1 line 14, as
			// one fused register-communication allreduce.
			if err := c.AllReduce(sums, counts); err != nil {
				fail(err)
				return
			}
			// Every CPE derives the identical new centroid set.
			movement := core.ApplyUpdate(cents, sums, counts, d)
			// CPE 0 writes the result back to main memory, then the
			// mesh synchronizes (an empty allreduce is a barrier) so
			// no CPE starts the next iteration's centroid load before
			// the write-back lands.
			if c.ID() == 0 {
				if err := engine.Put(c.Clock(), mainCents, cents); err != nil {
					fail(err)
					return
				}
			}
			if err := c.AllReduce(nil, nil); err != nil {
				fail(err)
				return
			}
			iters.record(iter, c.Clock().Now())
			if c.ID() == 0 {
				res.Iters = iter + 1
			}
			if movement <= tolerance*tolerance {
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

// chunkSamples sizes the per-CPE stream buffer: the LDM must hold the
// chunk plus the centroid set, the sums and the counters. The
// arithmetic lives in the central capacity package next to the
// constraint it derives from.
func chunkSamples(spec *machine.Spec, k, d int) int {
	return ldm.Level1StreamChunk(spec, k, d)
}

func share(n, p, r int) (int, int) {
	base := n / p
	extra := n % p
	lo := r*base + min(r, extra)
	hi := lo + base
	if r < extra {
		hi++
	}
	return lo, hi
}
