// Package obs is the span-level observability layer of the simulator:
// a deterministic recording of where virtual time goes, per simulated
// unit, per iteration, per phase. Every unit — a CG rank in the
// large-scale engines, a CPE in the fine-grained substrates — owns one
// Unit and appends typed spans (compute, dma, regcomm, mpi:<op>,
// checkpoint, restore, replan, redo) carrying virtual start/end times,
// modelled bytes and flops. Exporters turn the spans into a
// Chrome-trace/Perfetto JSON file, a JSONL metrics log and an ASCII
// timeline (see export.go, metrics.go, timeline.go).
//
// Two invariants make the data trustworthy:
//
//   - Tiling: a Unit's spans partition [0, T] with no gaps and no
//     overlaps. Uninstrumented clock advances surface as explicit
//     "other" filler spans, so per-unit durations sum to the unit's
//     final virtual-clock time exactly — unattributed time is visible
//     instead of silently missing.
//   - Determinism: spans carry only vclock timestamps and each Unit is
//     appended to by one goroutine at a time (handoff through the
//     run's WaitGroup), so identical runs produce byte-identical
//     exports regardless of host scheduling.
//
// Everything is nil-safe: a nil *Recorder or *Unit turns every method
// into a no-op, so instrumented hot paths cost one pointer test when
// observability is off.
package obs

import (
	"sort"
	"sync"
)

// Span kinds. MPI collectives use KindMPI + the operation name
// ("mpi:barrier", "mpi:allreduce", ...); PhaseClass folds them back
// into one phase.
const (
	KindCompute    = "compute"
	KindDMA        = "dma"
	KindReg        = "regcomm"
	KindCheckpoint = "checkpoint"
	KindRestore    = "restore"
	KindReplan     = "replan"
	KindRedo       = "redo"
	KindIter       = "iter"
	KindOther      = "other"

	// KindMPI prefixes every MPI collective span kind.
	KindMPI = "mpi:"
)

// IterUnit is the name of the marker track rank 0 of the epoch loop
// records iteration, checkpoint and redo boundaries on. It is not a
// simulated unit, so metrics and tiling checks exclude it.
const IterUnit = "iterations"

// Span is one typed interval of a unit's virtual time line.
type Span struct {
	Kind  string
	Start float64 // virtual seconds
	End   float64 // virtual seconds, >= Start
	Iter  int     // owning iteration, -1 for setup/recovery work
	Bytes int64   // modelled bytes moved, 0 when not a transfer
	Flops int64   // modelled flops, 0 when not compute
}

// Duration returns the span's extent in virtual seconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// Unit records the span time line of one simulated unit. A Unit is
// confined to the goroutine currently simulating the unit; ownership
// may move between epochs because the runs' WaitGroups order the
// handoff.
//
// A Unit belonging to a rollup recorder (NewRollupRecorder) keeps no
// spans: every emission folds online into the bounded per-(kind, iter)
// aggregates of rollup.go, in exactly the order the spans would have
// been appended, so the derived tables are bit-identical to the
// span-retaining mode.
type Unit struct {
	name   string
	iter   int
	depth  int // nesting depth of open Begin sections
	cursor float64
	spans  []Span

	// Rollup-mode state; nil in the span-retaining mode.
	rollup *unitRollup
}

// Name returns the unit's export name.
func (u *Unit) Name() string {
	if u == nil {
		return ""
	}
	return u.name
}

// Spans returns the recorded time line. The slice is owned by the
// Unit; callers must not mutate it.
func (u *Unit) Spans() []Span {
	if u == nil {
		return nil
	}
	return u.spans
}

// EndTime returns the latest virtual time the time line covers.
func (u *Unit) EndTime() float64 {
	if u == nil {
		return 0
	}
	return u.cursor
}

// SetIter labels subsequently recorded spans with the given iteration
// (-1 for setup and recovery work outside any iteration).
func (u *Unit) SetIter(iter int) {
	if u == nil {
		return
	}
	u.iter = iter
}

// Mark is the receipt of a Begin, closed by the matching End. Passing
// it by value keeps Begin/End allocation-free.
type Mark struct {
	active bool
	start  float64
}

// Begin opens a section at virtual time now. Sections nest: only the
// outermost one emits a span, so a composite operation (a Split built
// on an allgather, a checkpoint wrapping collectives) claims its whole
// range once instead of double-counting the inner steps.
func (u *Unit) Begin(now float64) Mark {
	if u == nil {
		return Mark{}
	}
	u.depth++
	return Mark{active: u.depth == 1, start: now}
}

// End closes a section opened by Begin. The outermost section records
// one span of the given kind from its start to now; nested sections
// only unwind the depth.
func (u *Unit) End(m Mark, kind string, now float64, bytes, flops int64) {
	if u == nil {
		return
	}
	if u.depth > 0 {
		u.depth--
	}
	if m.active {
		u.emit(kind, m.start, now, bytes, flops)
	}
}

// Record emits one standalone span. Inside an open section it is a
// no-op — the section will claim the range.
func (u *Unit) Record(kind string, start, end float64, bytes, flops int64) {
	if u == nil || u.depth > 0 {
		return
	}
	u.emit(kind, start, end, bytes, flops)
}

// RecordCost emits the closed-form per-iteration cost triple of the
// coarse engines as three consecutive spans — DMA read, compute,
// register communication — starting at start, matching how the cost
// model serializes the phases when it charges the clock.
func (u *Unit) RecordCost(start, read, compute, reg float64, dmaBytes, regBytes, flops int64) {
	if u == nil || u.depth > 0 {
		return
	}
	t := start
	u.emit(KindDMA, t, t+read, dmaBytes, 0)
	t += read
	u.emit(KindCompute, t, t+compute, 0, flops)
	t += compute
	u.emit(KindReg, t, t+reg, regBytes, 0)
}

// Finish extends the time line to the unit's final virtual time,
// surfacing any trailing uninstrumented advance as an "other" span.
func (u *Unit) Finish(now float64) {
	if u == nil {
		return
	}
	if now > u.cursor {
		u.record(KindOther, u.cursor, now, 0, 0)
		u.cursor = now
	}
}

// emit appends a span, maintaining the tiling invariant: a gap between
// the cursor and start becomes an explicit "other" filler span, a
// start behind the cursor is clipped forward (the overlap was already
// attributed), and the cursor advances to the span's end.
func (u *Unit) emit(kind string, start, end float64, bytes, flops int64) {
	if start > u.cursor {
		u.record(KindOther, u.cursor, start, 0, 0)
		u.cursor = start
	} else {
		start = u.cursor
	}
	if end < start {
		end = start
	}
	if end > start || bytes != 0 || flops != 0 {
		u.record(kind, start, end, bytes, flops)
		u.cursor = end
	}
}

// record lands one finalized span: appended in the span-retaining
// mode, folded into the online aggregates in rollup mode. Both paths
// see the identical sequence of (kind, duration) emissions, which is
// what makes the two modes' derived tables bit-identical.
func (u *Unit) record(kind string, start, end float64, bytes, flops int64) {
	if u.rollup != nil {
		u.rollup.fold(kind, u.iter, end-start, bytes, flops)
		return
	}
	u.spans = append(u.spans, Span{Kind: kind, Start: start, End: end, Iter: u.iter, Bytes: bytes, Flops: flops})
}

// Recorder owns the units of one observed run. Unit lookup is safe
// from concurrent rank goroutines; the recorded spans themselves are
// only read after the run's goroutines joined.
type Recorder struct {
	mu       sync.Mutex
	units    map[string]*Unit  // guarded by mu
	counters map[string]uint64 // guarded by mu
	rollup   bool
}

// NewRecorder returns an empty span-retaining recorder.
func NewRecorder() *Recorder {
	return &Recorder{units: make(map[string]*Unit)}
}

// NewRollupRecorder returns a recorder in streaming-aggregation mode:
// units fold every span online into bounded per-(kind, iteration)
// aggregates — count, seconds, bytes, flops, and a log2 duration
// histogram — instead of retaining it. Memory is O(units × kinds ×
// iterations) regardless of span count, which is what lets a
// 4,096-rank discrete-event run stay observable. Raw-span consumers
// (WriteTraceEvents full mode, Lanes) see empty timelines; the
// derived tables (Summarize, UnitTotals, BuildProfile) are
// bit-identical to the span-retaining mode.
func NewRollupRecorder() *Recorder {
	return &Recorder{units: make(map[string]*Unit), rollup: true}
}

// Unit returns the unit with the given name, creating it on first use.
// A nil recorder returns a nil unit, whose methods all no-op.
func (r *Recorder) Unit(name string) *Unit {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.units[name]
	if !ok {
		u = &Unit{name: name, iter: -1}
		if r.rollup {
			u.rollup = newUnitRollup()
		}
		r.units[name] = u
	}
	return u
}

// AddCounter accumulates a named whole-run counter (scheduler parks,
// event-queue dispatches, ...) into the recorder. Counters ride along
// in the exported profile; they are not spans and have no time line.
// Nil-safe and callable from any goroutine.
func (r *Recorder) AddCounter(name string, v uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]uint64)
	}
	r.counters[name] += v
}

// MaxCounter folds a named counter as a running maximum instead of a
// sum — the right combination for high-water marks like queue depth.
// Nil-safe and callable from any goroutine.
func (r *Recorder) MaxCounter(name string, v uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]uint64)
	}
	if v > r.counters[name] {
		r.counters[name] = v
	}
}

// Counters returns the recorded counters sorted by name.
func (r *Recorder) Counters() []Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Counter, 0, len(names))
	for _, name := range names {
		out = append(out, Counter{Name: name, Value: r.counters[name]})
	}
	return out
}

// Units returns all units in natural name order ("rank/2" before
// "rank/10"), the canonical export order. Call only after the
// observed runs completed.
func (r *Recorder) Units() []*Unit {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Sort names, not units: sort.Strings fixes a canonical base order,
	// and the stable natural sort on top of it breaks natural ties
	// ("rank/01" vs "rank/1") the same way every run — naturalLess
	// alone is not a total order over distinct names.
	names := make([]string, 0, len(r.units))
	for name := range r.units {
		names = append(names, name)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(i, j int) bool { return naturalLess(names[i], names[j]) })
	out := make([]*Unit, 0, len(names))
	for _, name := range names {
		out = append(out, r.units[name])
	}
	return out
}

// naturalLess orders strings with embedded decimal runs numerically,
// so unit names sort the way humans number ranks.
func naturalLess(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		if isDigit(a[0]) && isDigit(b[0]) {
			an, arest := splitNum(a)
			bn, brest := splitNum(b)
			if an != bn {
				return an < bn
			}
			a, b = arest, brest
			continue
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return len(a) < len(b)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// splitNum splits a leading decimal run off s and returns its value
// and the remainder.
func splitNum(s string) (uint64, string) {
	var n uint64
	i := 0
	for i < len(s) && isDigit(s[i]) {
		n = n*10 + uint64(s[i]-'0')
		i++
	}
	return n, s[i:]
}
