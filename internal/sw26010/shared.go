package sw26010

import "sync"

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
