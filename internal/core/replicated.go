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
// resolves per rank). The one stripe is the whole model; mini-batch
// learning rates need each centroid's cumulative mass.
func (replicatedEngine) replan(env *epochEnv) error {
	e := env.plan
	e.Ranks = len(env.alive)
	e.Groups = len(env.alive)
	env.eplan = e
	env.stripes = newStripes(env.model, env.cfg.K, env.src.D(), 1, env.cfg.MiniBatch > 0)
	return nil
}

func (replicatedEngine) setup(work *mpi.Comm, env *epochEnv) (engineState, error) {
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
	return &replicatedState{
		env: env, work: work, model: &env.stripes[0], d: d,
		part: mpi.NewRowSums(k, d),
		buf:  make([]float64, d),
		lo:   lo, hi: hi,
	}, nil
}

// replicatedState is one rank's epoch state at Levels 1 and 2.
type replicatedState struct {
	env    *epochEnv
	work   *mpi.Comm
	model  *stripe      // the epoch's one shared model
	part   *mpi.RowSums // this iteration's sums of the rows it won
	buf    []float64
	lo, hi int
	d      int
}

func (st *replicatedState) step(iter int) (stepOut, error) {
	env, cfg, d := st.env, &st.env.cfg, st.d
	at := st.work.Clock().Now()
	st.part.Reset()
	cents := st.model.cents
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
			j, dist := Nearest(st.buf, cents, d, env.assign[i])
			env.assign[i] = j
			localObj += dist
			st.part.Add(j, st.buf)
		}
	} else {
		for i := st.lo; i < st.hi; i += cfg.SampleStride {
			env.src.Sample(i, st.buf)
			j, dist := Nearest(st.buf, cents, d, env.assign[i])
			env.assign[i] = j
			localObj += dist
			st.part.Add(j, st.buf)
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
	// bandwidth-optimal ring for large k·d) into one shared sum.
	sums, err := st.work.AllReduceRows(st.part)
	if err != nil {
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
			for j := 0; j < sums.Rows(); j++ {
				_, cnt := sums.Row(j)
				total += cnt
			}
			out.objective = obj[0] / float64(total)
		}
	}
	out.movement = st.model.update(iter, sums, d)
	return out, nil
}

// gather is free at the replicated levels: every rank already holds
// the full model.
func (st *replicatedState) gather() ([]float64, error) { return st.model.cents, nil }
