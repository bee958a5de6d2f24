package core

import (
	"repro/internal/costmodel"
	"repro/internal/mpi"
)

// replicatedEngine executes Levels 1 and 2, which share their data
// flow: every core group computes full assignments for its sample
// range against the complete centroid set (Level 2 merely organizes
// the centroid set across CPE groups inside the CG, which changes the
// local cost profile and the capacity constraints, not the math), and
// the k-by-d partial sums meet in a world AllReduce. The functional
// arithmetic is identical to sequential Lloyd sample-by-sample; only
// the reduction order of the centroid sums differs.
type replicatedEngine struct{}

// replan shapes an epoch trivially: every survivor works, and the
// dataflow is re-partitioned over the shrunken communicator (or kept
// on the original static shards under DropLostShards, which setup
// resolves per rank).
func (replicatedEngine) replan(env *epochEnv) error {
	e := env.plan
	e.Ranks = len(env.alive)
	e.Groups = len(env.alive)
	env.eplan = e
	env.slices = make([][]float64, 1)
	return nil
}

// adoptsModel is true: the state keeps the full matrix and updates it
// in place every iteration, so each rank needs a private copy.
func (replicatedEngine) adoptsModel() bool { return true }

func (replicatedEngine) setup(work *mpi.Comm, env *epochEnv, cents []float64) (engineState, error) {
	n, d, k := env.src.N(), env.src.D(), env.cfg.K
	// Shard assignment for this epoch: redistribute the full dataset
	// over the survivors, or keep the original static shards and let
	// dead ones drop out.
	var lo, hi int
	if env.droplost {
		lo, hi = shareRange(n, env.plan.Ranks, work.Global())
	} else {
		lo, hi = shareRange(n, work.Size(), work.Rank())
	}
	st := &replicatedState{
		env: env, work: work, cents: cents, d: d,
		sums:   make([]float64, k*d),
		counts: make([]int64, k),
		buf:    make([]float64, d),
		lo:     lo, hi: hi,
	}
	if env.cfg.MiniBatch > 0 {
		// Cumulative per-centroid mass for mini-batch learning rates.
		st.cumCounts = make([]int64, k)
	}
	return st, nil
}

// replicatedState is one rank's epoch state at Levels 1 and 2.
type replicatedState struct {
	env    *epochEnv
	work   *mpi.Comm
	cents  []float64
	sums   []float64
	counts []int64
	// cumCounts persists across iterations for the mini-batch learning
	// rate (mini-batch mode only).
	cumCounts []int64
	buf       []float64
	lo, hi    int
	d         int
}

func (st *replicatedState) step(iter int) (stepOut, error) {
	env, cfg, d := st.env, &st.env.cfg, st.d
	at := st.work.Clock().Now()
	for i := range st.sums {
		st.sums[i] = 0
	}
	for j := range st.counts {
		st.counts[j] = 0
	}
	// Assign step: either the full owned range (functionally strided,
	// always charged in full) or a rotating mini-batch of it (charged
	// as the batch). Each sample's previous assignment seeds the
	// kernel; only the rank that owns the sample reads or writes it.
	localObj := 0.0
	nLocal := st.hi - st.lo
	chargedN := nLocal
	if cfg.MiniBatch > 0 && nLocal > 0 {
		batch := min(cfg.MiniBatch, nLocal)
		chargedN = batch
		start := (iter * batch) % nLocal
		for b := 0; b < batch; b++ {
			i := st.lo + (start+b)%nLocal
			env.src.Sample(i, st.buf)
			j, dist := Nearest(st.buf, st.cents, d, env.assign[i])
			env.assign[i] = j
			localObj += dist
			row := st.sums[j*d : (j+1)*d]
			for u := 0; u < d; u++ {
				row[u] += st.buf[u]
			}
			st.counts[j]++
		}
	} else {
		for i := st.lo; i < st.hi; i += cfg.SampleStride {
			env.src.Sample(i, st.buf)
			j, dist := Nearest(st.buf, st.cents, d, env.assign[i])
			env.assign[i] = j
			localObj += dist
			row := st.sums[j*d : (j+1)*d]
			for u := 0; u < d; u++ {
				row[u] += st.buf[u]
			}
			st.counts[j]++
		}
	}
	var ic costmodel.Cost
	if env.eplan.Level == Level1 {
		ic = costmodel.Level1(cfg.Spec, chargedN, cfg.K, d)
	} else {
		ic = costmodel.Level2(cfg.Spec, chargedN, cfg.K, d, env.eplan.MGroup, cfg.BatchSamples)
	}
	chargeCost(ic, st.work.Clock(), cfg.Stats, st.work.Obs())
	chargeTransientDMA(st.work, env, ic, at)

	// Update step: the two AllReduce operations of Algorithm 1 line 14
	// (sums and counts travel together; the algorithm switches to a
	// bandwidth-optimal ring for large k·d).
	if err := st.work.AllReduceSumAuto(st.sums, st.counts); err != nil {
		return stepOut{}, err
	}
	out := stepOut{cost: ic}
	if cfg.TrackObjective {
		obj := []float64{localObj}
		if err := st.work.AllReduceSum(obj, nil); err != nil {
			return stepOut{}, err
		}
		if st.work.Rank() == 0 {
			// The reduced counts carry the exact number of samples
			// processed this iteration.
			total := int64(0)
			for _, cnt := range st.counts {
				total += cnt
			}
			out.objective = obj[0] / float64(total)
		}
	}
	if cfg.MiniBatch > 0 {
		out.movement = applyMiniBatchUpdate(st.cents, st.sums, st.counts, st.cumCounts, d)
	} else {
		out.movement = ApplyUpdate(st.cents, st.sums, st.counts, d)
	}
	return out, nil
}

// gather is free at the replicated levels: every rank already holds
// the full model.
func (st *replicatedState) gather() ([]float64, error) { return st.cents, nil }

// deposit publishes rank 0's model for assembly after the epoch.
func (st *replicatedState) deposit() {
	if st.work.Rank() == 0 {
		st.env.slices[0] = st.cents
	}
}
