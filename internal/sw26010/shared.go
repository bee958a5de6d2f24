package sw26010

import (
	"sync"

	"repro/internal/dataset"
)

// This file holds the small amount of state the 64 CPE goroutines of
// a mesh kernel genuinely share. Every field carries a "guarded by"
// annotation that the swlint guarded-field rule enforces statically,
// so a forgotten lock is a lint failure on every run rather than a
// probabilistic race-detector hit.

// errOnce records the first kernel failure across concurrent CPE
// goroutines. The zero value is ready for use.
type errOnce struct {
	mu  sync.Mutex
	err error // guarded by mu
}

// set records err as the run's failure unless one was already
// recorded.
func (e *errOnce) set(err error) {
	e.mu.Lock()
	if e.err == nil {
		e.err = err
	}
	e.mu.Unlock()
}

// get returns the first recorded failure, if any.
func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// groupStage is a CG group's staged samples for RunLevel3Group: two
// buffers of batch×d values, batch b in buffer b&1. The first rank to
// reach a batch generates it under the mutex; the others find it
// staged, and every rank's CPEs read their stripes of it in place.
//
// Two buffers are enough. Batch b is read by each rank's runs b (the
// distances) and b+1 (the accumulation). A rank refills its buffer for
// batch b+2 only after the group's min-reduce of batch b+1 returned,
// and that reduction needs every rank to have finished run b+1 first.
type groupStage struct {
	mu   sync.Mutex
	seq  [2]int       // guarded by mu — the batch sequence number each buffer holds, -1 before its first fill
	rows [2][]float64 // guarded by mu
}

// newGroupStage returns an empty stage for batches of up to batch
// samples of d values.
func newGroupStage(batch, d int) *groupStage {
	return &groupStage{
		seq:  [2]int{-1, -1},
		rows: [2][]float64{make([]float64, batch*d), make([]float64, batch*d)},
	}
}

// load returns the m samples from index base as consecutive d-wide
// rows, generating them from src unless a rank of the group already
// staged batch seq, the batch's position in the run (iteration ×
// batches per iteration + batch).
func (s *groupStage) load(src dataset.Source, seq, base, m, d int) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.rows[seq&1][:m*d]
	if s.seq[seq&1] != seq {
		for i := 0; i < m; i++ {
			src.Sample(base+i, rows[i*d:(i+1)*d])
		}
		s.seq[seq&1] = seq
	}
	return rows
}

// timeline accumulates per-iteration completion times: every
// participant reports its clock at the end of each iteration and the
// maximum across participants is the iteration's end time.
type timeline struct {
	mu  sync.Mutex
	end []float64 // guarded by mu — max participant clock after each iteration
}

// newTimeline returns a timeline for up to iters iterations.
func newTimeline(iters int) *timeline {
	return &timeline{end: make([]float64, iters)}
}

// record notes a participant's clock value t at the end of iteration
// iter, keeping the maximum.
func (tl *timeline) record(iter int, t float64) {
	tl.mu.Lock()
	if t > tl.end[iter] {
		tl.end[iter] = t
	}
	tl.mu.Unlock()
}

// deltas converts the cumulative end times of the first iters
// iterations into per-iteration durations.
func (tl *timeline) deltas(iters int) []float64 {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]float64, 0, iters)
	prev := 0.0
	for i := 0; i < iters; i++ {
		out = append(out, tl.end[i]-prev)
		prev = tl.end[i]
	}
	return out
}
