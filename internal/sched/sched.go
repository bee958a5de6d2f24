// Package sched implements the deterministic discrete-event scheduler
// that underpins the large-rank simulation driver. Simulated units run
// as coroutine-style tasks: goroutines that execute strictly one at a
// time under the scheduler's control, parking at their wait points and
// resuming when an event for them is dispatched. The event queue is a
// binary heap of virtual-time events with a total tie-break order —
// time, then unit index, then sequence number — so a run's execution
// order is a pure function of the simulated workload, never of the Go
// runtime's goroutine scheduling.
//
// The package is deliberately lower-level than vclock: events carry
// plain float64 virtual times and the scheduler neither owns nor
// advances any clock. Units reconcile their own clocks at wake-up,
// exactly like the goroutine driver does with message timestamps.
//
// Concurrency model. Although tasks are backed by goroutines (Go has
// no first-class continuations), at most one of them — or the
// scheduler loop itself — is ever runnable: control is handed over
// through unbuffered channel operations (resume to the task, yield
// back to the scheduler), each of which is a happens-before edge. All
// scheduler and task state is therefore totally ordered without any
// locks, and the race detector agrees.
package sched

import (
	"fmt"
	"math"
	"sort"
)

// event is one scheduled resumption of a task.
type event struct {
	time float64 // virtual time of the resumption
	unit int     // owning unit index: first tie-break
	seq  uint64  // scheduling order: final tie-break
	task *Task
}

// eventHeap orders events by (time, unit, seq). The seq component is
// strictly increasing across pushes, so the order is total and pop is
// deterministic. It is a binary min-heap on a plain slice: boxing each
// event into an interface, as container/heap does, would allocate
// twice per dispatch.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	//swlint:ignore float-eq -- the tie-break chain needs the exact compare: equal-bit times fall through to the (unit, seq) order, any tolerance would merge distinct dispatch times
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	if h[i].unit != h[j].unit {
		return h[i].unit < h[j].unit
	}
	return h[i].seq < h[j].seq
}

// push adds ev, sifting it up to its place.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.Less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// pop removes and returns the least event, sifting the last one down
// from the root.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	ev := q[0]
	q[0], q[n] = q[n], event{}
	q = q[:n]
	for i := 0; ; {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && q.Less(r, least) {
			least = r
		}
		if !q.Less(least, i) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return ev
}

// Stats are the scheduler's whole-run dispatch counters, exposed so
// the observability layer can fold them into run profiles. Reading
// them is only meaningful after Run returns (or between dispatches).
type Stats struct {
	Dispatches uint64 // events popped and handed to a task
	Parks      uint64 // Park calls (voluntary suspensions)
	Wakes      uint64 // Wake calls that actually enqueued an event
	MaxQueue   int    // high-water mark of the event heap
}

// Sim is one scheduler instance: an event heap plus the set of tasks
// it drives. A Sim is single-use per Run and is not safe for use from
// goroutines outside its own task set.
type Sim struct {
	events  eventHeap
	seq     uint64
	tasks   []*Task
	live    int
	running *Task
	now     float64
	stats   Stats

	// yield is the shared hand-back channel: the running task sends on
	// it when it parks or finishes, unblocking the scheduler loop.
	yield chan struct{}
}

// New returns an empty scheduler.
func New() *Sim {
	return &Sim{yield: make(chan struct{})}
}

// taskState tracks where a task is in its lifecycle.
type taskState int

const (
	taskParked  taskState = iota // waiting for a Wake
	taskQueued                   // has an event in the heap
	taskRunning                  // the one task currently executing
	taskDone                     // fn returned
)

// Task is one simulated unit's execution context. All methods must be
// called either from the task's own fn (Park) or from whichever task
// or pre-Run code currently holds control (Wake) — the scheduler's
// handshake makes those calls data-race free by construction.
type Task struct {
	sim    *Sim
	unit   int
	state  taskState
	resume chan struct{}
}

// Spawn registers fn as the continuation body of a unit and schedules
// its first resumption at virtual time at. fn runs to completion over
// one or more dispatches (each Park inside it ends one dispatch).
// Spawn may only be called before Run or from a running task.
func (s *Sim) Spawn(unit int, at float64, fn func(t *Task)) *Task {
	t := &Task{sim: s, unit: unit, state: taskParked, resume: make(chan struct{})}
	s.tasks = append(s.tasks, t)
	s.live++
	go func() {
		<-t.resume
		fn(t)
		//swlint:ignore goroutine-purity -- the resume/yield handshake serializes all task goroutines: this write happens strictly between the scheduler's channel send and receive, a happens-before sandwich the race detector verifies
		t.state = taskDone
		s.yield <- struct{}{}
	}()
	t.Wake(at)
	return t
}

// Wake schedules the task to resume at virtual time at (if the task is
// already queued or finished, Wake is a no-op: a task resumes at the
// earliest of its pending wake-ups, and re-parks itself if the wake-up
// turns out to be spurious for its wait condition). NaN times are
// rejected with a panic, mirroring vclock's discipline.
func (t *Task) Wake(at float64) {
	if math.IsNaN(at) {
		panic("sched: wake at NaN")
	}
	if t.state == taskQueued || t.state == taskRunning || t.state == taskDone {
		return
	}
	s := t.sim
	t.state = taskQueued
	s.seq++
	s.events.push(event{time: at, unit: t.unit, seq: s.seq, task: t})
	s.stats.Wakes++
	if n := s.events.Len(); n > s.stats.MaxQueue {
		s.stats.MaxQueue = n
	}
}

// Stats returns the scheduler's dispatch counters so far.
func (s *Sim) Stats() Stats { return s.stats }

// Park suspends the calling task until some other task (or the fault
// machinery it triggers) Wakes it. Callers must re-check their wait
// condition on return and park again when it does not hold yet —
// wake-ups are hints, not guarantees.
func (t *Task) Park() {
	if t.sim.running != t {
		panic("sched: Park called from a task that is not running")
	}
	t.state = taskParked
	t.sim.stats.Parks++
	t.sim.yield <- struct{}{}
	<-t.resume
}

// Now returns the virtual time of the event being dispatched. It is a
// scheduler-eye view (the heap's clock, not any unit's), exposed for
// diagnostics; units own their real virtual time in their vclocks.
func (s *Sim) Now() float64 { return s.now }

// Run dispatches events until every spawned task has finished. It
// returns a diagnostic error when tasks are still parked but no event
// remains — the discrete-event analogue of a deadlocked rank set.
func (s *Sim) Run() error {
	for s.live > 0 {
		if s.events.Len() == 0 {
			return s.deadlockError()
		}
		ev := s.events.pop()
		t := ev.task
		if t.state != taskQueued {
			// A task can only be de-queued by dispatch, so a popped event
			// always refers to a queued task; anything else is scheduler
			// corruption and must not pass silently.
			return fmt.Errorf("sched: event for unit %d in state %d", ev.unit, t.state)
		}
		s.now = ev.time
		s.stats.Dispatches++
		t.state = taskRunning
		s.running = t
		t.resume <- struct{}{}
		<-s.yield
		s.running = nil
		if t.state == taskDone {
			s.live--
		}
	}
	return nil
}

// deadlockError reports which units are parked with nothing scheduled.
func (s *Sim) deadlockError() error {
	var parked []int
	for _, t := range s.tasks {
		if t.state == taskParked {
			parked = append(parked, t.unit)
		}
	}
	sort.Ints(parked)
	const show = 8
	if len(parked) > show {
		return fmt.Errorf("sched: deadlock: %d tasks parked with no pending events (units %v...)",
			len(parked), parked[:show])
	}
	return fmt.Errorf("sched: deadlock: %d tasks parked with no pending events (units %v)",
		len(parked), parked)
}
