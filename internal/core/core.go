// Package core implements the paper's contribution: multi-level
// data-partitioned parallel k-means for the (simulated) Sunway
// TaihuLight.
//
// Three partition levels are provided, mirroring Section III:
//
//   - Level 1 — dataflow partition: every CPE holds all k centroids in
//     LDM and streams a share of the samples (Algorithm 1).
//   - Level 2 — dataflow and centroid partition: groups of mgroup CPEs
//     inside one CG partition the centroid set; every group member
//     reads each of the group's samples and a min-reduce over partial
//     argmins produces the assignment (Algorithm 2).
//   - Level 3 — dataflow, centroid and dimension partition: one CG
//     holds a d-striped sample across its 64 CPEs, m'group CGs form a
//     CG group partitioning the centroids, and the dataflow spreads
//     across CG groups (Algorithm 3). This is the nkd-partition that
//     removes every pairwise capacity constraint between n, k and d.
//
// All levels execute functionally on the simulated machine: real
// floating-point clustering over real (generated) data, with per-rank
// virtual clocks measuring the paper's metric — one-iteration
// completion time — and trace counters recording DMA, register-
// communication and network traffic.
//
// # The IterEngine contract
//
// All three levels run through one epoch loop (runEngine): the levels
// are one algorithm — Lloyd's iteration — under three dataflow plans,
// and the per-level code is confined to the iterEngine interface.
// An engine contributes
//
//   - replan: shape one epoch over the surviving ranks — the epoch
//     plan, the participating ranks, and one centroid stripe per
//     CG-group position, each a row view of the epoch's one model
//     matrix (initial or restored), which the epoch trains in place.
//     At epoch 0 (and on every fault-free run) the epoch plan equals
//     the full-strength plan.
//   - setup: build a rank's per-epoch state: its communicators, its
//     sample shard and its position's stripe.
//   - step: one iteration — assign, partial sums, reduce, centroid
//     update — reporting the epoch-global movement, the charged local
//     cost, and the objective.
//   - gather: assemble the full model on rank 0 for a coordinated
//     checkpoint (free when rank 0 holds it; a stripe gather at
//     Level 3).
//
// The loop owns everything else: the epoch's model, iteration count,
// tolerance and convergence, objective tracking, per-iteration time
// and phase recording, and — when a fault plan is present — the
// checkpoint / restore / re-plan cycle. Resilience therefore composes
// with every level instead of being a separate driver.
package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Level selects the partition strategy.
type Level int

// The three partition levels of Section III.
const (
	Level1 Level = 1 // dataflow partition (n)
	Level2 Level = 2 // dataflow + centroid partition (nk)
	Level3 Level = 3 // dataflow + centroid + dimension partition (nkd)
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case Level1:
		return "level1(n-partition)"
	case Level2:
		return "level2(nk-partition)"
	case Level3:
		return "level3(nkd-partition)"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Config describes one clustering run on the simulated machine.
type Config struct {
	// Spec is the machine deployment. Required.
	Spec *machine.Spec
	// Level is the partition strategy. Required.
	Level Level
	// K is the number of centroids. Required.
	K int
	// MaxIters bounds the Lloyd iterations (default 20).
	MaxIters int
	// Tolerance stops iterating when the total squared centroid
	// movement of an iteration is at or below it (default 0: run until
	// the centroids are exactly fixed or MaxIters is hit).
	Tolerance float64
	// Seed selects the deterministic initial centroids.
	Seed uint64
	// Init selects the initialization method (default InitBlocks).
	Init InitMethod
	// Initial, when non-nil, warm-starts the run from an explicit
	// k-by-d centroid matrix (for example one loaded with
	// LoadCentroids), overriding Init. Run never writes it: it trains
	// a copy, so the caller may keep reading the matrix during the run.
	Initial []float64
	// TrackObjective additionally computes the paper's objective O(C)
	// every iteration (one extra scalar AllReduce per iteration).
	TrackObjective bool
	// Ranks overrides the number of core-group ranks used (default:
	// every CG of the deployment, capped at n).
	Ranks int
	// MGroup overrides the Level-2 CPE group size (default: planner).
	MGroup int
	// MPrimeGroup overrides the Level-3 CG group size (default:
	// planner).
	MPrimeGroup int
	// SampleStride processes every stride-th sample functionally while
	// charging simulated time for the full dataflow. Stride 1 (default)
	// is exact clustering; larger strides are for timing studies whose
	// n·k·d volume is infeasible to compute on the host. With stride>1
	// the assignment array is only populated at processed indices.
	SampleStride int
	// MiniBatch, when positive, switches Levels 1 and 2 to distributed
	// mini-batch iterations: each rank processes MiniBatch samples
	// drawn deterministically from its range per iteration (rotating
	// through the range across iterations) and both the functional
	// work AND the simulated time reflect only the batch. This is the
	// nested-mini-batch direction of the paper's related work [31]
	// mapped onto the machine: approximate clustering at a fraction of
	// the per-iteration cost. Convergence is still declared by centroid
	// movement, so pair it with a non-zero Tolerance.
	MiniBatch int
	// BatchSamples sets the assignment batch exchanged per collective
	// in Levels 2 and 3 (default 256).
	BatchSamples int
	// Faults, when non-empty, injects the deterministic fault plan into
	// the simulated machine and runs the epochs resiliently:
	// per-interval checkpointing, restart from the last checkpoint
	// after a rank failure, and re-planning over the surviving core
	// groups — at every level, including Level 3's CG groups (see
	// docs/FAULT_TOLERANCE.md).
	Faults fault.Plan
	// CheckpointInterval checkpoints the model every this many
	// iterations under Faults (default 5).
	CheckpointInterval int
	// DropLostShards keeps a failed rank's sample shard out of the
	// computation instead of redistributing it to the survivors:
	// graceful degradation trading clustering quality for recovery
	// traffic. Dropped samples end the run with assignment -1.
	DropLostShards bool
	// Sched runs the epoch engine's MPI substrate on the discrete-event
	// scheduler driver instead of goroutine-per-rank: ranks become
	// coroutine tasks on a deterministic event heap, which is
	// bit-identical to the default driver (golden-locked) and hosts
	// thousands of ranks in-process — the driver behind the full
	// 4,096-rank Figure 6(b) simulation. The fine-grained CPE kernels
	// (internal/sw26010) keep their own substrate either way.
	Sched bool
	// Stats receives traffic counters; optional.
	Stats *trace.Stats
	// Obs, when non-nil, records the span-level virtual-time trace of
	// the run: one unit per rank plus an "iterations" marker track,
	// exportable as a Chrome/Perfetto trace or a metrics table (see
	// internal/obs and docs/OBSERVABILITY.md). Leave nil for the
	// allocation-free unobserved path.
	Obs *obs.Recorder
}

// withDefaults returns a copy with defaults applied.
func (cfg Config) withDefaults() Config {
	if cfg.MaxIters == 0 {
		cfg.MaxIters = 20
	}
	if cfg.SampleStride == 0 {
		cfg.SampleStride = 1
	}
	if cfg.BatchSamples == 0 {
		cfg.BatchSamples = 256
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 5
	}
	return cfg
}

// validate checks the parts of the configuration that do not depend on
// the dataset.
func (cfg Config) validate() error {
	if cfg.Spec == nil {
		return errors.New("core: config needs a machine spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if cfg.Level < Level1 || cfg.Level > Level3 {
		return fmt.Errorf("core: unknown level %d", int(cfg.Level))
	}
	if cfg.K < 1 {
		return fmt.Errorf("core: k must be at least 1, got %d", cfg.K)
	}
	if cfg.MaxIters < 1 {
		return fmt.Errorf("core: max iterations must be at least 1, got %d", cfg.MaxIters)
	}
	if cfg.Tolerance < 0 {
		return fmt.Errorf("core: tolerance must be non-negative, got %g", cfg.Tolerance)
	}
	if cfg.SampleStride < 1 {
		return fmt.Errorf("core: sample stride must be at least 1, got %d", cfg.SampleStride)
	}
	if cfg.BatchSamples < 1 {
		return fmt.Errorf("core: batch size must be at least 1, got %d", cfg.BatchSamples)
	}
	if cfg.MiniBatch < 0 {
		return fmt.Errorf("core: mini-batch size must be non-negative, got %d", cfg.MiniBatch)
	}
	if cfg.MiniBatch > 0 {
		if cfg.Level == Level3 {
			return fmt.Errorf("core: mini-batch mode is implemented for Levels 1 and 2")
		}
		if cfg.SampleStride > 1 {
			return fmt.Errorf("core: mini-batch mode and sample striding are mutually exclusive")
		}
	}
	if cfg.CheckpointInterval < 1 {
		return fmt.Errorf("core: checkpoint interval must be at least 1, got %d", cfg.CheckpointInterval)
	}
	if !cfg.Faults.Empty() {
		if _, err := fault.NewInjector(cfg.Faults); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		if cfg.MiniBatch > 0 {
			return fmt.Errorf("core: mini-batch mode and fault injection are mutually exclusive")
		}
	}
	return nil
}

// Result reports a clustering run.
type Result struct {
	// Centroids is the final k-by-d centroid matrix, row-major.
	Centroids []float64
	// K and D are the result shape.
	K, D int
	// Assign maps sample index to centroid index. With SampleStride>1
	// unprocessed indices hold -1.
	Assign []int
	// Iters is the number of iterations executed.
	Iters int
	// Converged reports whether the tolerance was reached before
	// MaxIters.
	Converged bool
	// IterTimes holds the simulated one-iteration completion time in
	// seconds for each iteration — the paper's metric.
	IterTimes []float64
	// Phases breaks each iteration's simulated time into the paper's
	// cost categories (parallel to IterTimes).
	Phases []Phase
	// Objectives holds O(C) per iteration when TrackObjective is set
	// (the objective of the assignment made in that iteration).
	Objectives []float64
	// Traffic is the per-run traffic snapshot (zero when no Stats sink
	// was configured).
	Traffic trace.Snapshot
	// Plan is the partition plan the run executed.
	Plan Plan
	// Recovery reports the fault-recovery work of the run (nil for
	// fault-free runs).
	Recovery *Recovery
}

// Phase is the per-iteration simulated time split: DMA reads, per-CPE
// compute, register communication, and everything else on the critical
// path (network collectives, synchronization, imbalance).
type Phase struct {
	Read    float64
	Compute float64
	Reg     float64
	Other   float64
}

// MeanIterTime returns the average simulated seconds per iteration.
func (r *Result) MeanIterTime() float64 {
	if len(r.IterTimes) == 0 {
		return 0
	}
	s := 0.0
	for _, t := range r.IterTimes {
		s += t
	}
	return s / float64(len(r.IterTimes))
}

// Centroid returns a read-only view of centroid j.
func (r *Result) Centroid(j int) []float64 {
	return r.Centroids[j*r.D : (j+1)*r.D]
}

// InitialCentroids returns k deterministic, distinct initial centroids
// drawn from the source: one sample from each of k equal index blocks,
// positioned inside its block by the seed. Every rank computes the
// same initialization locally, so no startup broadcast is needed.
func InitialCentroids(src dataset.Source, k int, seed uint64) ([]float64, error) {
	n, d := src.N(), src.D()
	if k < 1 || k > n {
		return nil, fmt.Errorf("core: k must be in [1,%d], got %d", n, k)
	}
	cents := make([]float64, k*d)
	block := n / k
	for j := 0; j < k; j++ {
		off := 0
		if block > 1 {
			off = int(hash2(seed, uint64(j)) % uint64(block))
		}
		idx := j*block + off
		src.Sample(idx, cents[j*d:(j+1)*d])
	}
	return cents, nil
}

// hash2 mixes two words, splitmix64-style.
func hash2(a, b uint64) uint64 {
	x := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 27
	return x
}

// shareRange splits n items across p parts and returns the half-open
// range of part r; the first n%p parts get one extra item.
func shareRange(n, p, r int) (lo, hi int) {
	base := n / p
	extra := n % p
	lo = r*base + min(r, extra)
	hi = lo + base
	if r < extra {
		hi++
	}
	return lo, hi
}

// argminDistance returns the index of the centroid in cents (a kLocal
// x d row-major matrix) nearest to x under squared Euclidean distance,
// together with that distance. Ties break to the lowest index. It is
// the plain reference loop: sequential Lloyd runs it, and the engines'
// kernel, Nearest, must return its answer bit for bit.
func argminDistance(x, cents []float64, d int) (int, float64) {
	k := len(cents) / d
	best := -1
	bestDist := 0.0
	//swlint:hot distance kernel: runs once per sample per iteration
	for j := 0; j < k; j++ {
		c := cents[j*d : (j+1)*d]
		s := 0.0
		for u := 0; u < d; u++ {
			diff := x[u] - c[u]
			s += diff * diff
		}
		if best < 0 || s < bestDist {
			best, bestDist = j, s
		}
	}
	return best, bestDist
}

// ApplyUpdate recomputes centroids from accumulated sums and counts,
// keeping the previous centroid for empty clusters, and returns the
// total squared movement. cents and sums are kLocal-by-d row-major;
// counts has kLocal entries. A caller that owns a stripe of d columns
// passes the stripe and its width as d.
func ApplyUpdate(cents, sums []float64, counts []int64, d int) float64 {
	movement := 0.0
	for j, n := range counts {
		if n != 0 {
			movement = updateRow(cents[j*d:(j+1)*d], sums[j*d:(j+1)*d], n, movement)
		}
	}
	return movement
}

// applyRows is ApplyUpdate over a row-sparse sum: rows in ascending
// order, an absent row being an empty cluster ApplyUpdate skips, so
// the centroids and the movement are ApplyUpdate's bit for bit.
func applyRows(cents []float64, sums *mpi.RowSums, d int) float64 {
	movement := 0.0
	for j := 0; j < sums.Rows(); j++ {
		if srow, n := sums.Row(j); n != 0 {
			movement = updateRow(cents[j*d:(j+1)*d], srow, n, movement)
		}
	}
	return movement
}

// updateRow moves one centroid to the mean of its n samples, whose sum
// is srow, and returns movement plus its squared movement, added
// coordinate by coordinate.
func updateRow(row, srow []float64, n int64, movement float64) float64 {
	inv := 1 / float64(n)
	//swlint:hot centroid update: touches every centroid coordinate
	for u := range row {
		nv := srow[u] * inv
		diff := nv - row[u]
		movement += diff * diff
		row[u] = nv
	}
	return movement
}

// applyMiniBatchRows moves each centroid toward its batch mean with
// the cumulative-count learning rate of Sculley's mini-batch k-means:
// the batched equivalent of per-sample c += (x-c)/count. cumCounts is
// updated in place and must persist across iterations.
func applyMiniBatchRows(cents []float64, sums *mpi.RowSums, cumCounts []int64, d int) float64 {
	movement := 0.0
	for j := 0; j < sums.Rows(); j++ {
		srow, m := sums.Row(j)
		if m == 0 {
			continue
		}
		cumCounts[j] += m
		w := float64(m) / float64(cumCounts[j])
		batchInv := 1 / float64(m)
		row := cents[j*d : (j+1)*d]
		for u := 0; u < d; u++ {
			mean := srow[u] * batchInv
			nv := row[u] + w*(mean-row[u])
			diff := nv - row[u]
			movement += diff * diff
			row[u] = nv
		}
	}
	return movement
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
