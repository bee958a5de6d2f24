package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// run carries one workload execution: the seed its inputs come from,
// where it may write, the trace sink, and the tallies of operations
// and metric values.
type run struct {
	name string
	seed uint64
	// small shrinks every shape so the smoke test runs in seconds.
	small bool
	// root is the repository under test.
	root string
	// work is a scratch directory the workload may create and fill.
	work string
	// out, when set, receives the traced run's artifacts.
	out string
	// tr records spans in traced runs; nil otherwise.
	tr *tracer
	// phase is the open span of the harness phase (measure or layers)
	// that workload spans nest under.
	phase int
	// traced is the traced pass's measurement, kept for the
	// workload's layer metrics.
	traced measurement
	// cpuProfile is the traced pass's raw CPU profile.
	cpuProfile []byte

	attempted, failed int
	failures          []string
	values            map[string]float64
	dists             map[string]summary
}

func newRun(name string, seed uint64, root, work string) *run {
	return &run{
		name: name, seed: seed, root: root, work: work,
		values: map[string]float64{},
		dists:  map[string]summary{},
	}
}

// op counts one attempted operation, failed when err is non-nil; a
// wrong answer is a failed operation. It reports whether the operation
// succeeded.
func (r *run) op(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, err.Error())
	}
	return false
}

// opf counts one operation that failed when ok is false.
func (r *run) opf(ok bool, format string, args ...any) bool {
	if ok {
		return r.op(nil)
	}
	return r.op(fmt.Errorf(format, args...))
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// sample records a timing's median and keeps its distribution for the
// report.
func (r *run) sample(name string, xs []float64) {
	r.note(name, xs)
	r.values[name] = r.dists[name].Med
}

// note keeps a timing's distribution for the report only.
func (r *run) note(name string, xs []float64) { r.dists[name] = summarize(xs) }

// span opens a span under the current phase; lane separates
// concurrent callers. End it with r.tr.end.
func (r *run) span(name string, lane int) int { return r.tr.start(name, r.phase, lane) }

// timed runs fn repeatedly for at least d and at least reps times and
// returns the median duration of one call in seconds. A traced run
// wraps the calls in one span named name.
func (r *run) timed(name string, d time.Duration, reps int, fn func() error) (float64, error) {
	id := r.span(name, 0)
	defer r.tr.end(id)
	var secs []float64
	for start := time.Now(); len(secs) < reps || time.Since(start) < d; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// result renders the run's values as the declared metrics: every
// end-to-end metric must have been measured as a positive finite
// number; a per-layer metric the workload does not exercise reads 0.
func (r *run) result(spec benchSpec, traced bool) (result, error) {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, m := range spec.PerLayer {
			res.Metrics[m.Name] = metric{Value: r.values[m.Name], Unit: m.Unit}
		}
		return res, nil
	}
	for _, m := range spec.EndToEnd {
		v, ok := r.values[m.Name]
		if !ok || !(v > 0) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("end-to-end metric %s measured as %g", m.Name, v)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return res, nil
}

// report prints the human-readable summary: each sampled timing with
// its count and spread, then the failures.
func (r *run) report(w io.Writer) {
	names := make([]string, 0, len(r.dists))
	for name := range r.dists {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d\n", r.name, r.seed)
	for _, name := range names {
		s := r.dists[name]
		fmt.Fprintf(w, "  %-16s n=%-5d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g p%.3g=%.4g\n",
			name, s.N, s.Min, s.Q1, s.Med, s.Q3, s.Max, 100*s.TailQ, s.Tail)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
}
