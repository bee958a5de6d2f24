package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// iterEngine is the seam between one partition level's dataflow and
// the shared epoch loop (runEngine): the paper's three levels are one
// algorithm under three dataflow plans, and this interface is exactly
// the part that differs. An engine is stateless: an epoch's shared
// state (its model, stripes and staged batches) lives on the
// epochEnv, and each rank's in the engineState its setup returns.
type iterEngine interface {
	// replan shapes one epoch over the surviving world ranks before the
	// ranks start executing: it derives the epoch plan (env.eplan), the
	// set of participating ranks (env.active), one stripe per CG-group
	// position (env.stripes), each a row view of the epoch's model
	// (env.model), and, at Level 3, one empty staged batch per CG group
	// (env.staged). Cutting the model by the epoch's CG-group size is
	// what re-stripes the centroids after a Level-3 re-plan. At epoch 0
	// every rank of the original plan is alive and the epoch plan must
	// equal the original plan, so fault-free runs execute the
	// full-strength dataflow unchanged.
	replan(env *epochEnv) error
	// setup builds a rank's per-epoch state on the working communicator:
	// its communicators, its sample shard and a pointer to its
	// position's stripe.
	setup(work *mpi.Comm, env *epochEnv) (engineState, error)
}

// engineState is one rank's view of one epoch.
type engineState interface {
	// step runs one Lloyd iteration — assign, partial sums, reduce,
	// centroid update — and reports the epoch-global movement (the
	// convergence decision must be uniform across ranks without extra
	// communication), the local per-iteration cost already charged to
	// the clock, and the mean objective (rank 0, TrackObjective only).
	step(iter int) (stepOut, error)
	// gather assembles the full k-by-d model on rank 0 for a
	// coordinated checkpoint: free for the replicated levels (rank 0
	// already holds the whole model), a slice gather for Level 3. Only
	// rank 0's return value is used.
	gather() ([]float64, error)
}

// stepOut is what one iteration reports back to the shared loop.
type stepOut struct {
	movement  float64        // epoch-global squared centroid movement
	cost      costmodel.Cost // local per-iteration cost charged this step
	objective float64        // rank-0 mean objective (TrackObjective only)
}

// epochEnv carries the shared context of one epoch: the run
// configuration, the survivors, the epoch's model, and the outputs of
// iterEngine.replan.
type epochEnv struct {
	cfg      Config
	src      dataset.Source
	plan     Plan // full-strength plan of the run
	epoch    int
	alive    []int // surviving world ranks, ascending
	inj      *fault.Injector
	assign   []int
	droplost bool
	// chunkSeconds is the cost of re-transferring one DMA chunk on a
	// transient fault (resilient runs only).
	chunkSeconds float64
	// model is the epoch's k-by-d centroid matrix, row-major, and the
	// only one: the initial centroids (a copy of them in a faulty run)
	// or the decoded checkpoint. The stripes are its row ranges, so the
	// epoch trains it in place, and the last epoch's is the result.
	model []float64

	// Outputs of iterEngine.replan:
	eplan       Plan          // the plan this epoch executes
	active      map[int]bool  // world ranks participating (nil: all survivors)
	groupOwners []int         // Level-3 droplost: epoch group -> original group
	stripes     []stripe      // the model's row views, one per CG-group position
	staged      []stagedBatch // Level 3: each epoch CG group's shared assign batch
}

// stripe is one CG-group position's share of the model, centroid rows
// [kLo, kHi), as every rank at that position holds it: a view of those
// rows of the epoch's model. Position-equal ranks compute bit-identical
// stripes, so an epoch stores each once (DESIGN.md §5, "The host cost
// of replicated state"); the replicated levels have one position, the
// whole model. Positions own disjoint rows, so their updates never
// touch the same values.
//
// After each Update allreduce, which hands every member one shared
// sum, the first member to take the mutex applies that sum and the
// others reuse its movement. The members read cents and cumCounts
// without the mutex: the next read after an update comes after the
// iteration's work-wide collective, which no member enters before
// taking the mutex, so no read overlaps the write.
type stripe struct {
	mu        sync.Mutex
	iter      int       // guarded by mu — the iteration last applied, -1 before the first
	movement  float64   // guarded by mu — its squared centroid movement
	cents     []float64 // written under mu, read between collectives
	cumCounts []int64   // mini-batch cumulative counts; as cents
}

// newStripes cuts the k-by-d model into one stripe per CG-group
// position, rows shareRange(k, positions, pos), with mini-batch
// cumulative counts when miniBatch is set.
func newStripes(model []float64, k, d, positions int, miniBatch bool) []stripe {
	out := make([]stripe, positions)
	for pos := range out {
		lo, hi := shareRange(k, positions, pos)
		var counts []int64
		if miniBatch {
			counts = make([]int64, hi-lo)
		}
		out[pos] = stripe{iter: -1, cents: model[lo*d : hi*d], cumCounts: counts}
	}
	return out
}

// update applies iteration iter's reduced sums to the stripe once and
// returns the stripe's squared movement: mini-batch learning rates
// when it keeps cumulative counts, Lloyd's means otherwise.
func (s *stripe) update(iter int, sums *mpi.RowSums, d int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.iter != iter {
		s.iter = iter
		if s.cumCounts != nil {
			s.movement = applyMiniBatchRows(s.cents, sums, s.cumCounts, d)
		} else {
			s.movement = applyRows(s.cents, sums, d)
		}
	}
	return s.movement
}

// isActive reports whether world rank g works this epoch.
func (env *epochEnv) isActive(g int) bool {
	return env.active == nil || env.active[g]
}

// engineFor returns the partition level's engine.
func engineFor(plan Plan) iterEngine {
	if plan.Level == Level3 {
		return level3Engine{}
	}
	return replicatedEngine{}
}

// runEngine executes cfg over src with the level's engine. It owns
// everything the pre-refactor drivers duplicated: the Lloyd iteration
// loop, convergence, objective tracking and per-iteration time/phase
// recording — and, when a fault plan is present, the epoch cycle of
// coordinated SWKM checkpoints, rank-0 restore + broadcast, and
// survivor re-planning.
//
// Fault-free runs execute exactly one epoch on the full communicator
// with no extra collectives or clock operations, so they are
// bit-identical to the pre-refactor per-level drivers (locked by the
// golden-parity suite). Under faults the run proceeds in epochs: when
// a rank fails mid-epoch every survivor unwinds with the same typed
// failure, the epoch aborts, and the next epoch re-plans over the
// survivors, restores the last checkpoint and resumes. Every recovery
// step is charged to the virtual clocks and lands in the Result's
// Recovery report.
func runEngine(cfg Config, src dataset.Source, plan Plan, eng iterEngine) (*Result, error) {
	n, d, k := src.N(), src.D(), cfg.K
	faulty := !cfg.Faults.Empty()

	var inj *fault.Injector
	if faulty {
		var err error
		inj, err = fault.NewInjector(cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	world, err := mpi.NewWorld(cfg.Spec, cfg.Stats, plan.Ranks)
	if err != nil {
		return nil, err
	}
	if cfg.Sched {
		world.SetDriver(mpi.DriverSched)
	}
	world.SetObserver(cfg.Obs)
	// The marker track: rank 0 stamps iteration, checkpoint and redo
	// boundaries on it, one shared timeline above the per-rank lanes.
	// Nil when unobserved; every method no-ops then.
	itu := cfg.Obs.Unit(obs.IterUnit)
	var ckptBytes int64
	var ckptCost, chunkSeconds float64
	if faulty {
		world.SetFaults(inj)
		net, err := netmodel.New(cfg.Spec)
		if err != nil {
			return nil, err
		}
		// A coordinated checkpoint ships the model header plus the k·d
		// payload past the supernode switch to stable storage; reading
		// it back on restart costs the same.
		ckptBytes = ModelBytes(k, d)
		ckptCost = net.Latency(machine.CrossSupernode) +
			float64(ckptBytes)/net.Bandwidth(machine.CrossSupernode)
		// Coarse DMA retry penalty: the cost model streams DMA in
		// chunks, so one retry re-transfers a chunk and waits out the
		// first backoff.
		chunkSeconds = cfg.Spec.BW.DMALatency +
			float64(costmodel.DMAChunkElems*8)/cfg.Spec.BW.DMA
	}
	init, err := initialCentroids(cfg, src)
	if err != nil {
		return nil, err
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{K: k, D: d, Assign: assign, Plan: plan}

	store := &ckptStore{}
	// The recovery ledger: rank 0 of the working communicator adds the
	// replan, restore and checkpoint costs, as it writes iterTimes, and
	// the loop below adds the redo time between epochs.
	rec := &Recovery{}
	// Indexed by logical iteration so redone iterations overwrite their
	// aborted first attempt; truncated to the executed count at the end.
	iterTimes := make([]float64, cfg.MaxIters)
	phases := make([]Phase, cfg.MaxIters)
	objectives := make([]float64, cfg.MaxIters)
	itersDone, converged := 0, false
	var lastEnv *epochEnv

	for epoch := 0; ; epoch++ {
		alive := world.Alive()
		if len(alive) == 0 {
			return nil, fmt.Errorf("core: %v resilient engine: no surviving ranks: %w",
				plan.Level, mpi.ErrRankFailed)
		}
		env := &epochEnv{
			cfg: cfg, src: src, plan: plan, epoch: epoch, alive: alive,
			inj: inj, assign: assign,
			droplost:     faulty && cfg.DropLostShards,
			chunkSeconds: chunkSeconds,
			model:        init,
		}
		// The epoch's model: the last checkpoint, read back from stable
		// storage, or the initial centroids. A restart before the first
		// checkpoint begins from the initial centroids again, so an
		// epoch that may abort trains a copy of them.
		ckpt, ckIter, _ := store.load()
		switch {
		case ckpt != nil:
			loaded, lk, ld, err := LoadCentroids(bytes.NewReader(ckpt))
			if err != nil {
				return nil, fmt.Errorf("core: restoring checkpoint: %w", err)
			}
			if lk != k || ld != d {
				return nil, fmt.Errorf("core: checkpoint shape %dx%d does not match run %dx%d", lk, ld, k, d)
			}
			env.model = loaded
		case faulty:
			env.model = slices.Clone(init)
		}
		if err := eng.replan(env); err != nil {
			return nil, fmt.Errorf("core: %v resilient engine: re-planning over %d survivors: %w",
				plan.Level, len(alive), err)
		}
		lastEnv = env
		failedBefore := len(world.Failed())
		epochStart := world.MaxTime()

		body := func(c *mpi.Comm) error {
			u := c.Obs()
			u.SetIter(-1)
			work := c
			if epoch > 0 {
				// Re-plan: the survivors split into the shrunken working
				// communicator — a real collective whose cost is the
				// re-planning overhead. Survivors the shrunken plan
				// cannot place (Level 3 keeps whole CG groups) sit the
				// epoch out.
				t0 := c.Clock().Now()
				om := u.Begin(t0)
				color := 1
				if env.isActive(c.Global()) {
					color = 0
				}
				sub, err := c.Split(color, c.Rank())
				u.End(om, obs.KindReplan, c.Clock().Now(), 0, 0)
				if err != nil {
					return err
				}
				if color != 0 {
					u.Finish(c.Clock().Now())
					return nil
				}
				work = sub
				if work.Rank() == 0 {
					rec.ReplanSeconds += c.Clock().Now() - t0
				}
			}

			// Restore: rank 0 reads the last checkpoint back from stable
			// storage and broadcasts it. The loop decoded it into the
			// epoch's model already, so this only charges the read and
			// the broadcast, with their spans and fault rolls. Before
			// the first checkpoint every rank derives the initial
			// centroids locally, like the fault-free engines.
			startIter := 0
			if ckpt != nil {
				t0 := work.Clock().Now()
				om := u.Begin(t0)
				var root []float64
				if work.Rank() == 0 {
					work.Clock().Advance(ckptCost)
					root = env.model
				}
				_, _, err := work.Bcast(0, root, nil)
				u.End(om, obs.KindRestore, work.Clock().Now(), ckptBytes, 0)
				if err != nil {
					return err
				}
				if work.Rank() == 0 {
					rec.RestoreSeconds += work.Clock().Now() - t0
				}
				startIter = ckIter
			}

			st, err := eng.setup(work, env)
			if err != nil {
				return err
			}
			prevT := work.Clock().Now()
			iters, conv := 0, false
			for iter := startIter; iter < cfg.MaxIters; iter++ {
				u.SetIter(iter)
				// Fail-stop promptly when this rank's crash time passed
				// during local compute, not just at the next message.
				if err := work.CheckFailure(); err != nil {
					return err
				}
				out, err := st.step(iter)
				if err != nil {
					return err
				}
				// One-iteration completion time: the barrier synchronizes
				// all clocks to the iteration's critical path.
				if err := work.Barrier(); err != nil {
					return err
				}
				if work.Rank() == 0 {
					it := work.Clock().Now() - prevT
					iterTimes[iter] = it
					other := it - out.cost.Seconds()
					if other < 0 {
						other = 0
					}
					phases[iter] = Phase{
						Read:    out.cost.ReadSeconds,
						Compute: out.cost.ComputeSeconds,
						Reg:     out.cost.RegSeconds,
						Other:   other,
					}
					if cfg.TrackObjective {
						objectives[iter] = out.objective
					}
					itu.SetIter(iter)
					itu.Record(obs.KindIter, prevT, work.Clock().Now(), 0, 0)
				}
				prevT = work.Clock().Now()

				// The reduced movement is identical on every rank, so
				// the convergence decision is uniform without extra
				// communication.
				done := out.movement <= cfg.Tolerance*cfg.Tolerance
				iters, conv = iter+1, done
				if faulty && !done && (iter+1)%cfg.CheckpointInterval == 0 && iter+1 < cfg.MaxIters {
					// Coordinated checkpoint right after the barrier: the
					// engine assembles the full model on rank 0, every
					// rank waits out the write, rank 0 serializes.
					t0 := work.Clock().Now()
					om := u.Begin(t0)
					err := func() error {
						full, err := st.gather()
						if err != nil {
							return err
						}
						work.Clock().Advance(ckptCost)
						if work.Rank() == 0 {
							var b bytes.Buffer
							if err := SaveCentroids(&b, full, k, d); err != nil {
								return err
							}
							store.save(b.Bytes(), iter+1, work.Clock().Now())
							rec.Checkpoints++
							rec.CheckpointSeconds += work.Clock().Now() - t0
						}
						return nil
					}()
					u.End(om, obs.KindCheckpoint, work.Clock().Now(), ckptBytes, 0)
					if err != nil {
						return err
					}
					if work.Rank() == 0 {
						itu.Record(obs.KindCheckpoint, t0, work.Clock().Now(), ckptBytes, 0)
					}
					prevT = work.Clock().Now()
				}
				if done {
					break
				}
			}
			u.SetIter(-1)
			u.Finish(work.Clock().Now())
			if work.Rank() == 0 {
				itersDone, converged = iters, conv
			}
			return nil
		}

		var epochErr error
		if faulty {
			epochErr = world.RunLive(body)
		} else {
			epochErr = world.Run(body)
		}
		if epochErr == nil {
			break
		}
		if !faulty {
			return nil, fmt.Errorf("core: %v engine: %w", plan.Level, epochErr)
		}
		if !errors.Is(epochErr, mpi.ErrRankFailed) && !errors.Is(epochErr, mpi.ErrCrashed) {
			return nil, fmt.Errorf("core: %v resilient engine: %w", plan.Level, epochErr)
		}
		if len(world.Failed()) == failedBefore {
			// The abort did not remove a rank: a retry would replay the
			// identical epoch forever.
			return nil, fmt.Errorf("core: %v resilient engine: non-crash abort: %w", plan.Level, epochErr)
		}
		// Everything since the last checkpoint (or the epoch start, if
		// later) is lost work the next epoch re-executes.
		_, _, ckptAt := store.load()
		if wasted := world.MaxTime() - max(ckptAt, epochStart); wasted > 0 {
			rec.RedoSeconds += wasted
			// Stamp the lost interval on the marker track: the work the
			// next epoch re-executes.
			itu.SetIter(-1)
			itu.Record(obs.KindRedo, world.MaxTime()-wasted, world.MaxTime(), 0, 0)
		}
		rec.Replans++
	}

	res.Centroids = lastEnv.model
	res.Iters = itersDone
	res.Converged = converged
	res.IterTimes = iterTimes[:itersDone]
	res.Phases = phases[:itersDone]
	if cfg.TrackObjective {
		res.Objectives = objectives[:itersDone]
	}
	if faulty {
		rec.LostRanks = world.Failed()
		if cfg.DropLostShards {
			// A dataflow owner (a rank at Levels 1–2, a CG group at
			// Level 3) that lost any member takes its static shard out
			// of the clustering.
			broken := make(map[int]bool)
			for _, g := range rec.LostRanks {
				broken[g/plan.MPrimeGroup] = true
			}
			for owner := 0; owner < plan.Groups; owner++ {
				if !broken[owner] {
					continue
				}
				lo, hi := shareRange(n, plan.Groups, owner)
				for i := lo; i < hi; i++ {
					assign[i] = -1
				}
				rec.DroppedSamples += hi - lo
			}
		}
		rec.RetrySeconds = world.RetrySeconds()
		res.Recovery = rec
	}
	return res, nil
}
