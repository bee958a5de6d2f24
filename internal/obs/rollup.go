// The streaming-aggregation (rollup) tier of the recorder: bounded
// per-unit state that every span emission folds into online, so runs
// with millions of spans — a 4,096-rank discrete-event epoch — stay
// observable without retaining any of them.
//
// Equivalence contract. The fold happens at the exact point a span
// would have been appended, with the same kind, iteration label and
// duration, in the same order. The span-retaining mode derives its
// tables by folding its retained spans through the same fold in
// emission order (Unit.rolled), so the per-iteration phase seconds,
// whole-run totals and profile cells of the two modes are one
// computation, bit-identical rather than merely close
// (TestRollupMatchesSummarize pins this at every partition level,
// including crash recovery).
package obs

import "sort"

// aggKey identifies one rollup cell: a span kind within an iteration
// (-1 collects setup and recovery work outside any iteration).
type aggKey struct {
	kind string
	iter int
}

// aggCell is one streaming aggregate: how many spans of this (kind,
// iter) the unit emitted, their summed virtual seconds, modelled
// traffic, and the log2 histogram of their durations.
type aggCell struct {
	count   uint64
	seconds float64
	bytes   int64
	flops   int64
	hist    Histogram
}

// unitRollup is one unit's bounded aggregation state. Key order is
// tracked by insertion (first emission), never by map iteration, so
// every derived ordering is a pure function of the emission sequence.
type unitRollup struct {
	aggs map[aggKey]*aggCell
	keys []aggKey // aggs keys in first-emission order
	// phases accumulates per-iteration phase seconds in emission order.
	phases map[int]*PhaseSeconds
	// total is the whole-run phase breakdown, likewise accumulated in
	// emission order.
	total PhaseSeconds
}

func newUnitRollup() *unitRollup {
	return &unitRollup{
		aggs:   make(map[aggKey]*aggCell),
		phases: make(map[int]*PhaseSeconds),
	}
}

// fold absorbs one span emission.
func (ur *unitRollup) fold(kind string, iter int, d float64, bytes, flops int64) {
	c, ok := ur.aggs[aggKey{kind, iter}]
	if !ok {
		c = &aggCell{}
		ur.aggs[aggKey{kind, iter}] = c
		ur.keys = append(ur.keys, aggKey{kind, iter})
	}
	c.count++
	c.seconds += d
	c.bytes += bytes
	c.flops += flops
	c.hist.Observe(d)

	p, ok := ur.phases[iter]
	if !ok {
		p = &PhaseSeconds{}
		ur.phases[iter] = p
	}
	p.add(kind, d)
	ur.total.add(kind, d)
}

// rolled returns the unit's rollup: the online one when aggregating,
// otherwise the retained spans folded through fold in emission order,
// the same folds the rollup mode performed. Treat it as read-only: in
// rollup mode it is the unit's live state.
func (u *Unit) rolled() *unitRollup {
	if u.rollup != nil {
		return u.rollup
	}
	ur := newUnitRollup()
	for _, s := range u.spans {
		ur.fold(s.Kind, s.Iter, s.Duration(), s.Bytes, s.Flops)
	}
	return ur
}

// sortedKeys returns the rollup's (kind, iter) keys in (iter, kind)
// order. It sorts a copy of the first-emission sequence (never a map
// walk) under a total order over the distinct keys.
func (ur *unitRollup) sortedKeys() []aggKey {
	keys := append([]aggKey(nil), ur.keys...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].iter != keys[j].iter {
			return keys[i].iter < keys[j].iter
		}
		return keys[i].kind < keys[j].kind
	})
	return keys
}
