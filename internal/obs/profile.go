// The aggregate profile: the recorder's data folded to per-(unit
// class, iteration, kind) cells with duration histograms, per-class
// totals, the top straggler units, and the run's counters. A profile
// is small regardless of scale — O(classes × iterations × kinds) plus
// a fixed number of straggler rows — which makes it the unit of
// exchange for run-over-run comparison (cmd/obsdiff), flamegraph
// rendering (WriteFolded) and the browser-viewable aggregate Perfetto
// export of 4,096-rank traces (WriteAggregateTrace). Every ordering
// is a pure function of the recorded data, so profiles of identical
// seeded runs are byte-identical, from either recorder mode.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// ProfileSchema identifies the profile JSON document format.
const ProfileSchema = "swkm-profile/1"

// ProfileTopUnits is how many straggler units a profile retains, in
// descending order of total virtual seconds.
const ProfileTopUnits = 16

// Counter is one named whole-run counter (Recorder.AddCounter).
type Counter struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// ProfilePhases is the JSON shape of a phase breakdown.
type ProfilePhases struct {
	Compute  float64 `json:"compute_seconds"`
	DMA      float64 `json:"dma_seconds"`
	Reg      float64 `json:"regcomm_seconds"`
	MPI      float64 `json:"mpi_seconds"`
	Recovery float64 `json:"recovery_seconds"`
	Other    float64 `json:"other_seconds"`
	Total    float64 `json:"total_seconds"`
}

func profilePhasesOf(p PhaseSeconds) ProfilePhases {
	return ProfilePhases{
		Compute: p.Compute, DMA: p.DMA, Reg: p.Reg, MPI: p.MPI,
		Recovery: p.Recovery, Other: p.Other, Total: p.Total(),
	}
}

// ProfileEntry is one aggregate cell: all spans of one kind in one
// iteration across the units of one class. Hist is the log2 duration
// histogram's bucket counts with trailing zeros trimmed (bucket i
// covers durations up to 2^i nanoseconds of virtual time).
type ProfileEntry struct {
	Class   string   `json:"class"`
	Iter    int      `json:"iter"`
	Kind    string   `json:"kind"`
	Count   uint64   `json:"count"`
	Seconds float64  `json:"seconds"`
	Bytes   int64    `json:"bytes,omitempty"`
	Flops   int64    `json:"flops,omitempty"`
	Hist    []uint64 `json:"hist"`
}

// ClassTotal is one unit class's whole-run footprint.
type ClassTotal struct {
	Class   string        `json:"class"`
	Units   int           `json:"units"`
	Seconds float64       `json:"seconds"`
	Phases  ProfilePhases `json:"phases"`
}

// UnitSummary is one unit's whole-run total — the straggler table row.
type UnitSummary struct {
	Unit    string        `json:"unit"`
	Class   string        `json:"class"`
	Seconds float64       `json:"seconds"`
	Phases  ProfilePhases `json:"phases"`
}

// Profile is the aggregate export document. Entries are ordered by
// (class, iter, kind); classes and counters by name; top units by
// descending seconds with natural-name tie-break.
type Profile struct {
	Schema   string         `json:"schema"`
	Units    int            `json:"units"`
	Iters    int            `json:"iters"`
	Classes  []ClassTotal   `json:"classes"`
	Entries  []ProfileEntry `json:"entries"`
	TopUnits []UnitSummary  `json:"top_units"`
	Counters []Counter      `json:"counters,omitempty"`
}

// UnitClass maps a unit name to its class by collapsing the numeric
// parts: "rank/12" → "rank", "cpe/3" → "cpe", "cg1/cpe/7" →
// "cg/cpe", "iterations" → "iterations".
func UnitClass(name string) string {
	segs := strings.Split(name, "/")
	out := make([]string, 0, len(segs))
	for _, s := range segs {
		s = strings.TrimRight(s, "0123456789")
		if s == "" {
			continue
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return "unit"
	}
	return strings.Join(out, "/")
}

// unitCellData is one unit's aggregates, kept around for the per-unit
// consumers (straggler lanes in the aggregate trace).
type unitCellData struct {
	name  string
	class string
	total PhaseSeconds
	keys  []aggKey
	aggs  map[aggKey]*aggCell
}

// profileData is the shared intermediate of the profile consumers:
// the document plus the per-unit cells it was folded from, units in
// natural name order.
type profileData struct {
	p     *Profile
	units []unitCellData
}

// buildProfileData folds the recorder into a profile. The fold order
// is fixed — units in natural order, cells in (iter, kind) order — so
// the result is deterministic and identical across recorder modes.
func buildProfileData(r *Recorder) *profileData {
	type classAcc struct {
		units int
		total PhaseSeconds
		keys  []aggKey
		aggs  map[aggKey]*aggCell
	}
	classes := make(map[string]*classAcc)
	var classNames []string
	var units []unitCellData
	seenIters := make(map[int]bool)
	iters := 0

	for _, u := range r.Units() {
		if u.Name() == IterUnit {
			continue
		}
		ur := u.rolled()
		keys, aggs := ur.sortedKeys(), ur.aggs
		ud := unitCellData{
			name: u.Name(), class: UnitClass(u.Name()),
			total: ur.total, keys: keys, aggs: aggs,
		}
		units = append(units, ud)
		ca, ok := classes[ud.class]
		if !ok {
			ca = &classAcc{aggs: make(map[aggKey]*aggCell)}
			classes[ud.class] = ca
			classNames = append(classNames, ud.class)
		}
		ca.units++
		ca.total.Add(ud.total)
		for _, k := range keys {
			cell, ok := ca.aggs[k]
			if !ok {
				cell = &aggCell{}
				ca.aggs[k] = cell
				ca.keys = append(ca.keys, k)
			}
			c := aggs[k]
			cell.count += c.count
			cell.seconds += c.seconds
			cell.bytes += c.bytes
			cell.flops += c.flops
			cell.hist.Add(&c.hist)
			if k.iter >= 0 && !seenIters[k.iter] {
				seenIters[k.iter] = true
				iters++
			}
		}
	}
	sort.Strings(classNames)

	p := &Profile{Schema: ProfileSchema, Units: len(units), Iters: iters}
	for _, name := range classNames {
		ca := classes[name]
		p.Classes = append(p.Classes, ClassTotal{
			Class: name, Units: ca.units,
			Seconds: ca.total.Total(), Phases: profilePhasesOf(ca.total),
		})
		keys := append([]aggKey(nil), ca.keys...)
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].iter != keys[j].iter {
				return keys[i].iter < keys[j].iter
			}
			return keys[i].kind < keys[j].kind
		})
		for _, k := range keys {
			c := ca.aggs[k]
			p.Entries = append(p.Entries, ProfileEntry{
				Class: name, Iter: k.iter, Kind: k.kind,
				Count: c.count, Seconds: c.seconds,
				Bytes: c.bytes, Flops: c.flops,
				Hist: trimHist(&c.hist),
			})
		}
	}

	tops := make([]UnitSummary, 0, len(units))
	for _, ud := range units {
		tops = append(tops, UnitSummary{
			Unit: ud.name, Class: ud.class,
			Seconds: ud.total.Total(), Phases: profilePhasesOf(ud.total),
		})
	}
	// Stable sort over the natural-order slice: equal totals keep
	// natural name order, so the straggler table is deterministic.
	sort.SliceStable(tops, func(i, j int) bool { return tops[i].Seconds > tops[j].Seconds })
	if len(tops) > ProfileTopUnits {
		tops = tops[:ProfileTopUnits]
	}
	p.TopUnits = tops
	p.Counters = r.Counters()
	return &profileData{p: p, units: units}
}

// BuildProfile folds the recorder's data into its aggregate profile.
// It works on both recorder modes and produces bit-identical profiles
// for the same run.
func BuildProfile(r *Recorder) *Profile {
	return buildProfileData(r).p
}

// trimHist returns the histogram's bucket counts with trailing zero
// buckets trimmed (the profile's compact wire form).
func trimHist(h *Histogram) []uint64 {
	last := -1
	for i, c := range h.Counts {
		if c != 0 {
			last = i
		}
	}
	out := make([]uint64, last+1)
	copy(out, h.Counts[:last+1])
	return out
}

// WriteProfileJSON writes the recorder's aggregate profile as one
// indented JSON document. Deterministic: identical seeded runs export
// byte-identically, from either recorder mode.
func WriteProfileJSON(w io.Writer, r *Recorder) error {
	buf, err := json.MarshalIndent(BuildProfile(r), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling profile: %w", err)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("obs: writing profile: %w", err)
	}
	return nil
}

// WriteFolded writes the profile as folded stacks — the collapsed
// format flamegraph renderers consume: one "class;iter:<n>;<kind>
// <nanoseconds>" line per aggregate cell, in entry order. Virtual
// seconds become integer nanoseconds, the folded format's sample
// unit.
func WriteFolded(w io.Writer, p *Profile) error {
	for _, e := range p.Entries {
		ns := int64(math.Round(e.Seconds * 1e9))
		if _, err := fmt.Fprintf(w, "%s;iter:%d;%s %d\n", e.Class, e.Iter, e.Kind, ns); err != nil {
			return fmt.Errorf("obs: writing folded stacks: %w", err)
		}
	}
	return nil
}
