// Package lockpark seeds lock-across-park shapes: mutexes held across
// scheduler blocking points (flagged) next to the unlock-park-relock
// protocol the scheduler era blesses, which internal/mpi's receive and
// rendezvous waits use.
package lockpark

import (
	"sync"

	"repro/internal/mpi"
	"repro/internal/sched"
)

type server struct {
	mu    sync.Mutex
	ready bool
}

// ParkUnderLock holds mu across Park: the waker needs mu to flip
// ready, so the parked task can never be woken.
func (s *server) ParkUnderLock(t *sched.Task) {
	s.mu.Lock()
	for !s.ready {
		t.Park() // flagged: s.mu held across Task.Park
	}
	s.mu.Unlock()
}

// parkOnce parks on behalf of its caller; the summary carries the
// blocking point to every call site.
func parkOnce(t *sched.Task) {
	t.Park()
}

// HelperUnderLock reaches Park only through the helper — invisible
// without the interprocedural summaries.
func (s *server) HelperUnderLock(t *sched.Task) {
	s.mu.Lock()
	parkOnce(t) // flagged: Task.Park reached via lockpark.parkOnce
	s.mu.Unlock()
}

// DeferAcrossBarrier defers the unlock, which runs at function exit —
// after the barrier. The deferred unlock does not release along the
// path, so the mutex is held while every rank waits.
func (s *server) DeferAcrossBarrier(c *mpi.Comm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ready = true
	return c.Barrier() // flagged: s.mu held across Comm.Barrier
}

// ParkProtocol is the blessed shape of internal/mpi's waits: unlock
// before every park, re-lock after, so the set is empty at the
// blocking point.
func (s *server) ParkProtocol(t *sched.Task) {
	s.mu.Lock()
	for !s.ready {
		s.mu.Unlock()
		t.Park()
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// UnlockThenBarrier releases before blocking; nothing is held at the
// collective.
func (s *server) UnlockThenBarrier(c *mpi.Comm) error {
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	return c.Barrier()
}

// WakeUnderLock is clean: Wake is a non-blocking hint and may be
// issued under the mutex.
func (s *server) WakeUnderLock(t *sched.Task) {
	s.mu.Lock()
	s.ready = true
	t.Wake(1)
	s.mu.Unlock()
}

// HelperNoLock calls the parking helper with nothing held.
func (s *server) HelperNoLock(t *sched.Task) {
	s.mu.Lock()
	s.ready = false
	s.mu.Unlock()
	parkOnce(t)
}
