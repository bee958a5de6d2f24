// Per-phase metrics derived from the raw spans: the paper's Section IV
// decomposition — compute, DMA, register communication, MPI — plus the
// recovery machinery, per unit and per iteration, with the critical
// path (slowest unit) and the load imbalance (max/mean) of every
// iteration.
package obs

import (
	"sort"
	"strings"
)

// Phase classes returned by PhaseClass.
const (
	PhaseCompute  = "compute"
	PhaseDMA      = "dma"
	PhaseReg      = "regcomm"
	PhaseMPI      = "mpi"
	PhaseRecovery = "recovery"
	PhaseMarker   = "marker"
	PhaseOther    = "other"
)

// PhaseClass folds a span kind into its reporting phase: every
// "mpi:<op>" kind is PhaseMPI, the recovery kinds (checkpoint,
// restore, replan, redo) are PhaseRecovery, iteration markers are
// PhaseMarker, and unknown kinds report as PhaseOther rather than
// vanishing.
func PhaseClass(kind string) string {
	switch kind {
	case KindCompute:
		return PhaseCompute
	case KindDMA:
		return PhaseDMA
	case KindReg:
		return PhaseReg
	case KindCheckpoint, KindRestore, KindReplan, KindRedo:
		return PhaseRecovery
	case KindIter:
		return PhaseMarker
	}
	if strings.HasPrefix(kind, KindMPI) {
		return PhaseMPI
	}
	return PhaseOther
}

// PhaseSeconds is virtual time split by phase class.
type PhaseSeconds struct {
	Compute  float64
	DMA      float64
	Reg      float64
	MPI      float64
	Recovery float64
	Other    float64
}

// Total returns the summed virtual time across phases.
func (p PhaseSeconds) Total() float64 {
	return p.Compute + p.DMA + p.Reg + p.MPI + p.Recovery + p.Other
}

// add accumulates d seconds of the given span kind.
func (p *PhaseSeconds) add(kind string, d float64) {
	switch PhaseClass(kind) {
	case PhaseCompute:
		p.Compute += d
	case PhaseDMA:
		p.DMA += d
	case PhaseReg:
		p.Reg += d
	case PhaseMPI:
		p.MPI += d
	case PhaseRecovery:
		p.Recovery += d
	default:
		p.Other += d
	}
}

// Add merges another phase breakdown into p.
func (p *PhaseSeconds) Add(q PhaseSeconds) {
	p.Compute += q.Compute
	p.DMA += q.DMA
	p.Reg += q.Reg
	p.MPI += q.MPI
	p.Recovery += q.Recovery
	p.Other += q.Other
}

// RankIter is one unit's phase breakdown within one iteration. Iter
// -1 collects setup and recovery work outside any iteration.
type RankIter struct {
	Unit   string
	Iter   int
	Phases PhaseSeconds
}

// IterStat is the derived per-iteration summary across units: the
// critical path (the slowest unit's total), the mean, and the load
// imbalance max/mean.
type IterStat struct {
	Iter         int
	MaxSeconds   float64
	MeanSeconds  float64
	Imbalance    float64
	CriticalUnit string
}

// Metrics is the full derived table.
type Metrics struct {
	Ranks []RankIter
	Iters []IterStat
}

// Summarize derives the per-iteration per-unit metrics table from the
// recorder — folding retained spans, or reading the online aggregates
// of a rollup recorder; the two modes produce bit-identical tables
// because they perform the same additions in the same order. The
// marker track (IterUnit) is excluded — it annotates the timeline, it
// is not a simulated unit. Rows are ordered by iteration, then by
// natural unit name; iteration stats cover real iterations (iter >=
// 0) only.
func Summarize(r *Recorder) Metrics {
	type unitData struct {
		name   string
		phases map[int]*PhaseSeconds
	}
	var units []unitData
	var iterIDs []int
	seen := make(map[int]bool)
	for _, u := range r.Units() {
		if u.Name() == IterUnit {
			continue
		}
		ph := u.rolled().phases
		units = append(units, unitData{u.Name(), ph})
		for it := range ph {
			if !seen[it] {
				seen[it] = true
				iterIDs = append(iterIDs, it)
			}
		}
	}
	// Rows come out in iteration order, then unit order, by
	// construction: walk the sorted iteration set crossed with the
	// units in their recorded (natural) order, instead of repairing a
	// map walk with an after-the-fact sort.
	sort.Ints(iterIDs)
	var rows []RankIter
	for _, it := range iterIDs {
		for _, ud := range units {
			if p, ok := ud.phases[it]; ok {
				rows = append(rows, RankIter{Unit: ud.name, Iter: it, Phases: *p})
			}
		}
	}

	var iters []IterStat
	i := 0
	for i < len(rows) {
		j := i
		for j < len(rows) && rows[j].Iter == rows[i].Iter {
			j++
		}
		if rows[i].Iter >= 0 {
			st := IterStat{Iter: rows[i].Iter}
			sum := 0.0
			for _, row := range rows[i:j] {
				t := row.Phases.Total()
				sum += t
				if row.CriticalUnitLess(st) {
					st.MaxSeconds = t
					st.CriticalUnit = row.Unit
				}
			}
			st.MeanSeconds = sum / float64(j-i)
			if st.MeanSeconds > 0 {
				st.Imbalance = st.MaxSeconds / st.MeanSeconds
			}
			iters = append(iters, st)
		}
		i = j
	}
	return Metrics{Ranks: rows, Iters: iters}
}

// CriticalUnitLess reports whether this row beats the current
// critical-path candidate: strictly larger total wins; the first unit
// in natural order keeps ties deterministic.
func (row RankIter) CriticalUnitLess(st IterStat) bool {
	return st.CriticalUnit == "" || row.Phases.Total() > st.MaxSeconds
}

// UnitTotal is one unit's whole-run phase breakdown.
type UnitTotal struct {
	Unit   string
	Phases PhaseSeconds
}

// UnitTotals aggregates each unit's phase seconds over the whole run,
// in natural unit order, excluding the marker track. Like Summarize
// it is mode-independent: span-retaining and rollup recorders produce
// bit-identical totals.
func UnitTotals(r *Recorder) []UnitTotal {
	var out []UnitTotal
	for _, u := range r.Units() {
		if u.Name() == IterUnit {
			continue
		}
		out = append(out, UnitTotal{Unit: u.Name(), Phases: u.rolled().total})
	}
	return out
}
