// Package serve is the online serving path of the reproduction: k-means
// as a live service instead of a batch job (the Flash-KMeans framing in
// PAPERS.md). A long-running daemon holds immutable, epoch-numbered
// model snapshots — centroids sharded by range, the centroid-stripe
// topology of the map-reduce-style sharding in Li/Jin/Wang — and swaps
// them atomically while a background trainer ingests streaming samples
// and publishes new epochs through the epoch engine's mini-batch path.
//
// Robustness is the design center, mirrored from the simulator's fault
// discipline (internal/fault, docs/FAULT_TOLERANCE.md) onto wall-clock
// serving:
//
//   - every assignment query is answered or cleanly shed — bounded
//     admission queues return explicit 429-style responses instead of
//     collapsing under overload, and per-request deadlines return
//     explicit timeout responses instead of hanging;
//   - snapshot epochs are strictly monotonic and reads are never torn —
//     a snapshot is immutable after publication and swapped through one
//     atomic pointer;
//   - trainer death degrades, it does not fail — queries keep being
//     served from the last good snapshot with the staleness reported on
//     every response, and a supervisor restarts the trainer with
//     backoff;
//   - chaos is seeded and reusable — a wall-clock adapter (Chaos)
//     reuses fault.Plan semantics: scheduled trainer crashes,
//     straggling query shards, dropped snapshot publishes, degraded
//     links as injected latency.
//
// Unlike the rest of the simulated machine, this package is
// deliberately wall-clock: it measures and reacts to real time, so it
// is intentionally NOT in swlint's sim-package scope (no vclock
// import, no no-wallclock rule). See docs/SERVING.md for the snapshot
// model, the degradation contract, the chaos plan syntax and the
// metrics schema.
package serve

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Shard is a contiguous centroid-range stripe [Lo, Hi) of a snapshot —
// the unit the chaos adapter can straggle and the topology a scaled-out
// deployment would place on separate reducers.
type Shard struct {
	Lo, Hi int
}

// Snapshot is one immutable, epoch-numbered model. All fields are
// read-only after publication; the query path and the trainer share
// snapshots only through Store's atomic pointer, so readers can never
// observe a torn model.
type Snapshot struct {
	// Epoch is the strictly increasing publication number. Epoch gaps
	// are legal (a chaos-dropped publish consumes its number) but
	// regressions are not: Store.Publish rejects them.
	Epoch uint64
	// K and D are the model shape.
	K, D int
	// Centroids is the row-major k-by-d matrix. Never mutated after
	// publication.
	Centroids []float64
	// Shards partitions [0,K) into centroid-range stripes.
	Shards []Shard
	// CreatedAt is the wall-clock publication time; staleness on a
	// response is time.Since(CreatedAt).
	CreatedAt time.Time
	// TrainedSamples is the cumulative number of samples the trainer
	// had ingested when this snapshot was built.
	TrainedSamples int64
	// Origin records how the snapshot was produced: "bootstrap" for the
	// initial hierarchical streaming clustering, "minibatch" for
	// incremental epoch-engine rounds.
	Origin string
}

// NewSnapshot validates and freezes a model into a snapshot with
// `shards` centroid-range stripes (clamped to [1, k]). The centroid
// matrix is copied, so the caller may keep mutating its buffer.
func NewSnapshot(epoch uint64, cents []float64, k, d, shards int, trained int64, origin string) (*Snapshot, error) {
	if k < 1 || d < 1 || len(cents) != k*d {
		return nil, fmt.Errorf("serve: centroid matrix %d does not match k=%d d=%d", len(cents), k, d)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > k {
		shards = k
	}
	s := &Snapshot{
		Epoch:          epoch,
		K:              k,
		D:              d,
		Centroids:      append([]float64(nil), cents...),
		Shards:         make([]Shard, shards),
		CreatedAt:      time.Now(),
		TrainedSamples: trained,
		Origin:         origin,
	}
	base, extra := k/shards, k%shards
	lo := 0
	for i := range s.Shards {
		hi := lo + base
		if i < extra {
			hi++
		}
		s.Shards[i] = Shard{Lo: lo, Hi: hi}
		lo = hi
	}
	return s, nil
}

// Staleness returns the wall-clock age of the snapshot.
func (s *Snapshot) Staleness() time.Duration { return time.Since(s.CreatedAt) }

// Assign returns the nearest centroid to x, scanning the shards in
// order and carrying the running best from each into the next, so the
// answer is core.Nearest's over the whole matrix whatever the shard
// count. visit, when non-nil, runs after each shard scan (the server
// hooks deadline checks and chaos shard delays there); a non-nil error
// aborts the scan.
func (s *Snapshot) Assign(x []float64, visit func(shard int) error) (int, float64, error) {
	if len(x) != s.D {
		return 0, 0, fmt.Errorf("serve: query has %d dims, model wants %d", len(x), s.D)
	}
	best, bestDist := -1, 0.0
	for i, sh := range s.Shards {
		best, bestDist = core.NearestFrom(x, s.Centroids, s.D, sh.Lo, sh.Hi, best, bestDist)
		if visit != nil {
			if err := visit(i); err != nil {
				return best, bestDist, err
			}
		}
	}
	return best, bestDist, nil
}

// Store holds the current snapshot behind one atomic pointer: readers
// get a consistent, immutable model with a single load, writers swap
// whole epochs. The zero value is ready to use (and empty).
type Store struct {
	cur atomic.Pointer[Snapshot]
	// rejected counts publishes refused for a non-monotonic epoch.
	rejected atomic.Uint64
}

// Current returns the live snapshot, or nil before the first publish.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Publish atomically swaps the live snapshot. It enforces the epoch
// contract — a publish whose epoch is not strictly greater than the
// live snapshot's is rejected with an error — so concurrent or replayed
// publishers can never move the store backwards. It also refuses a
// model with a NaN or ±Inf coordinate, naming the centroid and the
// dimension, so a diverged trainer cannot replace the last good
// snapshot.
func (st *Store) Publish(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("serve: cannot publish a nil snapshot")
	}
	if i := firstNonFinite(s.Centroids); i >= 0 {
		return fmt.Errorf("serve: cannot publish epoch %d: centroid %d dimension %d is %v",
			s.Epoch, i/s.D, i%s.D, s.Centroids[i])
	}
	for {
		old := st.cur.Load()
		if old != nil && s.Epoch <= old.Epoch {
			st.rejected.Add(1)
			return fmt.Errorf("serve: stale publish: epoch %d is not past live epoch %d", s.Epoch, old.Epoch)
		}
		if st.cur.CompareAndSwap(old, s) {
			return nil
		}
	}
}

// firstNonFinite returns the index of the first NaN or ±Inf in x, or
// -1 if every value is finite. Once a NaN or ±Inf enters a sum, the
// sum stays NaN or ±Inf, so a finite sum proves every term finite. The
// common finite matrix therefore costs one addition per value in four
// independent chains, several times less than a per-value test, which
// matters because a publish is on the server's start-up path. Only a
// non-finite sum, or one that overflowed, pays for the per-value
// search.
func firstNonFinite(x []float64) int {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y := x[i : i+4 : i+4]
		s0 += y[0]
		s1 += y[1]
		s2 += y[2]
		s3 += y[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i]
	}
	if t := s0 + s1 + s2 + s3; !math.IsNaN(t) && !math.IsInf(t, 0) {
		return -1
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// Rejected returns how many publishes the store refused as stale.
func (st *Store) Rejected() uint64 { return st.rejected.Load() }
