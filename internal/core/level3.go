package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/ldm"
	"repro/internal/mpi"
)

// ckptGatherTag is the user-space message tag of the Level-3
// checkpoint slice gather (group 0 ships its stripes to rank 0).
const ckptGatherTag = 0x51c3

// level3Engine executes Algorithm 3: the nkd-partition. Ranks are core
// groups; mPrime consecutive ranks form a CG group that partitions the
// centroid set (consecutive ranks share a node/supernode, so a CG
// group stays physically compact, as Section III.C recommends); the
// dataflow is partitioned across CG groups; and inside each CG the 64
// CPEs stripe the dimensions, which the cost model accounts for.
//
// Per sample batch, every CG computes partial assignments against its
// own centroid slice and the group's min-reduce (a(i) = min a(i)')
// runs over MPI. The Update step combines slice sums across CG groups
// in per-slice communicators.
type level3Engine struct{}

// replan shapes an epoch of CG groups over the survivors. Under
// DropLostShards the original group structure is kept: a CG group that
// lost any member drops out whole (its centroid stripes live on every
// other group, but its static sample shard has no owner), and the
// intact groups keep their original stripes and shards. Otherwise the
// CG-group size shrinks (halving, like the planner built it) until the
// survivors host at least one group, every member's centroid stripe
// widens accordingly, and the full dataset is redistributed across the
// remaining groups; survivors beyond groups·m' sit the epoch out.
func (level3Engine) replan(env *epochEnv) error {
	plan := env.plan
	if env.droplost {
		aliveSet := make(map[int]bool, len(env.alive))
		for _, g := range env.alive {
			aliveSet[g] = true
		}
		active := make(map[int]bool)
		var owners []int
		for og := 0; og < plan.Groups; og++ {
			intact := true
			for p := 0; p < plan.MPrimeGroup; p++ {
				if !aliveSet[og*plan.MPrimeGroup+p] {
					intact = false
					break
				}
			}
			if !intact {
				continue
			}
			owners = append(owners, og)
			for p := 0; p < plan.MPrimeGroup; p++ {
				active[og*plan.MPrimeGroup+p] = true
			}
		}
		if len(owners) == 0 {
			return fmt.Errorf("no intact CG group survives")
		}
		e := plan
		e.Groups = len(owners)
		e.Ranks = len(owners) * plan.MPrimeGroup
		env.eplan = e
		env.active = active
		env.groupOwners = owners
		env.stripes = newStripes(env.model, env.cfg.K, env.src.D(), e.MPrimeGroup, false)
		env.staged = make([]stagedBatch, e.Groups)
		return nil
	}

	size := len(env.alive)
	mPrime := plan.MPrimeGroup
	for mPrime > size {
		mPrime /= 2
	}
	tiled := plan.Tiled
	if mPrime != plan.MPrimeGroup {
		// Halving m' doubles each member's centroid stripe: re-check
		// the LDM constraints, falling back to DRAM tiling like the
		// planner does.
		tiled = false
		if ldm.CheckLevel3(env.cfg.Spec, plan.K, plan.D, mPrime) != nil {
			if err := ldm.CheckLevel3Tiled(env.cfg.Spec, plan.K, plan.D, mPrime); err != nil {
				return err
			}
			tiled = true
		}
	}
	groups := size / mPrime
	used := groups * mPrime
	active := make(map[int]bool, used)
	for i, g := range env.alive {
		if i < used {
			active[g] = true
		}
	}
	e := plan
	e.MPrimeGroup = mPrime
	e.Groups = groups
	e.Ranks = used
	e.KLocalMax = ceilDiv(plan.K, mPrime)
	e.Tiled = tiled
	env.eplan = e
	env.active = active
	env.stripes = newStripes(env.model, env.cfg.K, env.src.D(), mPrime, false)
	env.staged = make([]stagedBatch, groups)
	return nil
}

func (level3Engine) setup(work *mpi.Comm, env *epochEnv) (engineState, error) {
	e := env.eplan
	n, d, k := env.src.N(), env.src.D(), env.cfg.K
	mPrime, groups := e.MPrimeGroup, e.Groups
	group := work.Rank() / mPrime
	pos := work.Rank() % mPrime
	groupComm, err := work.Split(group, pos)
	if err != nil {
		return nil, err
	}
	posComm, err := work.Split(pos+groups, group) // offset colors past group colors
	if err != nil {
		return nil, err
	}
	if groupComm.Size() != mPrime || posComm.Size() != groups {
		return nil, fmt.Errorf("level3: split sizes %d/%d, want %d/%d",
			groupComm.Size(), posComm.Size(), mPrime, groups)
	}

	kLo, kHi := shareRange(k, mPrime, pos)

	// The dataflow shard: the epoch group's share of the full dataset,
	// or the original group's static shard under DropLostShards.
	var lo, hi int
	if env.droplost {
		lo, hi = shareRange(n, env.plan.Groups, env.groupOwners[group])
	} else {
		lo, hi = shareRange(n, groups, group)
	}

	batch := env.cfg.BatchSamples
	return &level3State{
		env: env, work: work, groupComm: groupComm, posComm: posComm,
		group: group, pos: pos, kLo: kLo, kHi: kHi,
		staged: &env.staged[group],
		stripe: &env.stripes[pos],
		part:   mpi.NewRowSums(kHi-kLo, d),
		lo:     lo, hi: hi,
		idxs: make([]int, 0, batch),
		vals: make([]float64, batch),
		ids:  make([]int64, batch),
		d:    d,
	}, nil
}

// level3State is one rank's epoch state at Level 3.
type level3State struct {
	env        *epochEnv
	work       *mpi.Comm
	groupComm  *mpi.Comm // the rank's CG group (partitions the centroids)
	posComm    *mpi.Comm // same stripe position across CG groups
	group, pos int
	kLo, kHi   int
	staged     *stagedBatch // the CG group's shared assign batch
	stripe     *stripe      // the position's shared centroid stripe
	part       *mpi.RowSums // this iteration's sums of the rows it won
	lo, hi     int
	idxs       []int
	vals       []float64
	ids        []int64
	d          int
}

func (st *level3State) step(iter int) (stepOut, error) {
	env, cfg, d := st.env, &st.env.cfg, st.d
	k := cfg.K
	e := env.eplan
	at := st.work.Clock().Now()
	st.part.Reset()

	// Assign step in batches: local partial argmin against the slice,
	// then the group's min-reduce over MPI.
	kLocal := st.kHi - st.kLo
	localObj := 0.0
	localCnt := int64(0)
	batch := cfg.BatchSamples
	for start := st.lo; start < st.hi; start += batch * cfg.SampleStride {
		st.idxs = st.idxs[:0]
		for i := start; i < st.hi && len(st.idxs) < batch; i += cfg.SampleStride {
			st.idxs = append(st.idxs, i)
		}
		b := len(st.idxs)
		if kLocal == 0 {
			// No centroids here: NearestSlice's empty-slice sentinel
			// loses every comparison, and nothing is staged.
			for bi := 0; bi < b; bi++ {
				st.vals[bi] = math.Inf(1)
				st.ids[bi] = int64(k)
			}
		} else {
			rows := st.staged.load(env.src, st.idxs, d)
			for bi := 0; bi < b; bi++ {
				// Unseeded: only position-0 ranks write env.assign, so
				// reading it here would race with them.
				j, dist := NearestSlice(rows[bi*d:(bi+1)*d], st.stripe.cents, d, st.kLo, k)
				st.vals[bi] = dist
				st.ids[bi] = int64(j)
			}
		}
		if err := st.groupComm.AllReduceMinPairs(st.vals[:b], st.ids[:b]); err != nil {
			return stepOut{}, err
		}
		for bi, i := range st.idxs {
			w := int(st.ids[bi])
			if w < 0 || w >= k {
				return stepOut{}, fmt.Errorf("level3: sample %d reduced to invalid centroid %d", i, w)
			}
			if st.pos == 0 {
				env.assign[i] = w
				localObj += st.vals[bi]
				localCnt++
			}
			if w >= st.kLo && w < st.kHi {
				st.staged.addSample(env.src, i, st.part, w-st.kLo, d)
			}
		}
	}
	ic := costmodel.Level3(cfg.Spec, st.hi-st.lo, k, d, e.MPrimeGroup, batch, e.Tiled)
	chargeCost(ic, st.work.Clock(), cfg.Stats, st.work.Obs())
	chargeTransientDMA(st.work, env, ic, at)

	// Update step: combine the slice sums across CG groups (ring
	// algorithm for large slice volumes) into one sum the position
	// shares.
	sums, err := st.posComm.AllReduceRows(st.part)
	if err != nil {
		return stepOut{}, err
	}
	out := stepOut{cost: ic}
	if cfg.TrackObjective {
		obj := []float64{localObj}
		cnt := []int64{localCnt}
		if err := st.work.AllReduceSum(obj, cnt); err != nil {
			return stepOut{}, err
		}
		if st.work.Rank() == 0 {
			out.objective = obj[0] / float64(cnt[0])
		}
	}
	movement := st.stripe.update(iter, sums, d)

	// Convergence is a global property of all slices: sum the
	// per-slice movements across the epoch communicator. Every group
	// reports its position's one movement, so the sum over-counts by
	// exactly the group count.
	mv := []float64{movement}
	if err := st.work.AllReduceSum(mv, nil); err != nil {
		return stepOut{}, err
	}
	out.movement = mv[0] / float64(e.Groups)
	return out, nil
}

// stagedBatch is one CG group's current assign batch. Every member
// reads every sample of the group's share (the group partitions the
// centroids, not the samples), so the first member to reach a batch
// generates it here and the others read the same rows in place.
//
// One buffer is enough. A member refills it only after the group's
// min-reduce of the previous batch returned, and that reduction needs
// every member to have finished reading the previous rows first. The
// winners' sums therefore do not read it (the next batch may already
// be refilling it): a winner regenerates its sample into the spare row.
type stagedBatch struct {
	mu    sync.Mutex
	first int       // guarded by mu — index of the staged batch's first sample
	n     int       // guarded by mu — samples staged; 0 until the first fill
	rows  []float64 // guarded by mu — n rows of d values, reused across batches
	spare []float64 // guarded by mu — one d-wide row for a winner's sample
}

// load returns the samples idxs as consecutive d-wide rows, generating
// them from src unless the group already staged this batch. A batch is
// identified by its first index and length: within an epoch the shard
// and stride are fixed, and samples are deterministic.
func (s *stagedBatch) load(src dataset.Source, idxs []int, d int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n != len(idxs) || s.first != idxs[0] {
		need := len(idxs) * d
		if cap(s.rows) < need {
			s.rows = make([]float64, need)
		}
		s.rows = s.rows[:need]
		for bi, i := range idxs {
			src.Sample(i, s.rows[bi*d:(bi+1)*d])
		}
		s.first, s.n = idxs[0], len(idxs)
	}
	return s.rows
}

// addSample adds sample i of src to row r of sums, generating it into
// the spare row. No member holds the mutex across a collective.
func (s *stagedBatch) addSample(src dataset.Source, i int, sums *mpi.RowSums, r, d int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spare == nil {
		s.spare = make([]float64, d)
	}
	src.Sample(i, s.spare)
	sums.Add(r, s.spare)
}

// gather assembles the full model on rank 0 for a coordinated
// checkpoint: group 0's members stand for their positions' stripes, so
// they ship them to rank 0 and a barrier re-synchronizes the epoch
// before the write.
func (st *level3State) gather() ([]float64, error) {
	mPrime := st.env.eplan.MPrimeGroup
	d, k := st.d, st.env.cfg.K
	if mPrime == 1 {
		// A group of one holds the whole model already.
		if st.work.Rank() == 0 {
			return st.stripe.cents, nil
		}
		return nil, nil
	}
	var full []float64
	switch {
	case st.work.Rank() == 0:
		full = make([]float64, k*d)
		copy(full, st.stripe.cents) // rank 0 is position 0: stripe starts at 0
		for p := 1; p < mPrime; p++ {
			kLo, kHi := shareRange(k, mPrime, p)
			data, _, err := st.work.Recv(p, ckptGatherTag)
			if err != nil {
				return nil, err
			}
			if len(data) != (kHi-kLo)*d {
				return nil, fmt.Errorf("level3: checkpoint stripe %d has %d values, want %d",
					p, len(data), (kHi-kLo)*d)
			}
			copy(full[kLo*d:kHi*d], data)
		}
	case st.group == 0:
		if err := st.work.Send(0, ckptGatherTag, st.stripe.cents, nil); err != nil {
			return nil, err
		}
	}
	if err := st.work.Barrier(); err != nil {
		return nil, err
	}
	return full, nil
}
