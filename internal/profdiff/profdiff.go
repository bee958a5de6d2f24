// Package profdiff compares two observability exports — aggregate
// profiles (swkm-profile/1) or JSONL metrics logs — as flat tables of
// named scalars with absolute and relative deltas. It is the engine of
// cmd/obsdiff: the loader normalizes both formats into the same row
// space, so "did this run regress" is one code path regardless of
// which export the runs kept.
package profdiff

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Row is one compared quantity.
type Row struct {
	Key string
	Old float64
	New float64
	// InOld/InNew distinguish a genuine zero from an absent key.
	InOld bool
	InNew bool
}

// Delta returns New - Old.
func (r Row) Delta() float64 { return r.New - r.Old }

// Rel returns the relative change (New-Old)/|Old|. A zero or absent
// old value with a different new value reports +Inf (appeared /
// grew from nothing); identical values report 0.
func (r Row) Rel() float64 {
	//swlint:ignore float-eq -- the determinism contract is bit-exact: two byte-identical exports must diff to exactly zero, so a tolerance here would mask real drift
	if r.Old == r.New {
		return 0
	}
	//swlint:ignore float-eq -- a literal zero baseline (row absent or truly 0) is an exact sentinel, not a computed value
	if r.Old == 0 {
		return math.Inf(1)
	}
	return (r.New - r.Old) / math.Abs(r.Old)
}

// Table is a named-scalar view of one export.
type Table struct {
	// Label describes the source (file path) for rendering.
	Label string
	vals  map[string]float64
	keys  []string // insertion order
}

// NewTable returns an empty table.
func NewTable(label string) *Table {
	return &Table{Label: label, vals: make(map[string]float64)}
}

// Add accumulates v under key, tracking first-insertion order.
func (t *Table) Add(key string, v float64) {
	if _, ok := t.vals[key]; !ok {
		t.keys = append(t.keys, key)
	}
	t.vals[key] += v
}

// Diff joins two tables over the union of their keys, sorted, so the
// row order is a pure function of the key set.
func Diff(old, new *Table) []Row {
	keys := append([]string(nil), old.keys...)
	for _, k := range new.keys {
		if _, ok := old.vals[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	rows := make([]Row, 0, len(keys))
	for _, k := range keys {
		ov, inOld := old.vals[k]
		nv, inNew := new.vals[k]
		rows = append(rows, Row{Key: k, Old: ov, New: nv, InOld: inOld, InNew: inNew})
	}
	return rows
}

// Changed filters rows whose relative change exceeds threshold (an
// absolute rel-delta bound; 0 keeps every non-identical row).
func Changed(rows []Row, threshold float64) []Row {
	var out []Row
	for _, r := range rows {
		if math.Abs(r.Rel()) > threshold {
			out = append(out, r)
		}
	}
	return out
}

// Render writes the rows as an aligned table. When onlyChanged is
// set, identical rows are skipped and a one-line summary notes how
// many matched.
func Render(w io.Writer, rows []Row, onlyChanged bool) error {
	bw := bufio.NewWriter(w)
	same := 0
	fmt.Fprintf(bw, "%-44s %16s %16s %12s %9s\n", "key", "old", "new", "delta", "rel")
	for _, r := range rows {
		//swlint:ignore float-eq -- Rel returns literal 0 only for bit-identical values; this classifies "unchanged" rows, not a numeric closeness test
		if r.Rel() == 0 {
			same++
			if onlyChanged {
				continue
			}
		}
		rel := "-"
		//swlint:ignore float-eq -- same bit-identical classification as above: nonzero means the stored values differed
		if rr := r.Rel(); rr != 0 {
			if math.IsInf(rr, 1) {
				rel = "new"
			} else {
				rel = fmt.Sprintf("%+.2f%%", 100*rr)
			}
		}
		if !r.InNew {
			rel = "gone"
		}
		fmt.Fprintf(bw, "%-44s %16.6g %16.6g %12.6g %9s\n", r.Key, r.Old, r.New, r.Delta(), rel)
	}
	if onlyChanged {
		fmt.Fprintf(bw, "(%d identical row(s) hidden)\n", same)
	}
	return bw.Flush()
}

// phaseCols maps the column names used in row keys to extractors, in
// render order.
var phaseCols = []struct {
	name string
	get  func(obs.ProfilePhases) float64
}{
	{"compute_seconds", func(p obs.ProfilePhases) float64 { return p.Compute }},
	{"dma_seconds", func(p obs.ProfilePhases) float64 { return p.DMA }},
	{"regcomm_seconds", func(p obs.ProfilePhases) float64 { return p.Reg }},
	{"mpi_seconds", func(p obs.ProfilePhases) float64 { return p.MPI }},
	{"recovery_seconds", func(p obs.ProfilePhases) float64 { return p.Recovery }},
	{"other_seconds", func(p obs.ProfilePhases) float64 { return p.Other }},
	{"total_seconds", func(p obs.ProfilePhases) float64 { return p.Total }},
}

// addPhases folds one phase breakdown under a key prefix.
func addPhases(t *Table, prefix string, p obs.ProfilePhases) {
	for _, c := range phaseCols {
		t.Add(prefix+"/"+c.name, c.get(p))
	}
}

// LoadObs loads the observability export at path into a table (see
// ParseObs).
func LoadObs(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseObs(path, raw)
}

// ParseObs parses an observability export into a table labelled
// label, sniffing the format: an aggregate profile JSON document
// (swkm-profile/1) or a JSONL metrics log (whose rank_iter lines carry
// the same phase seconds). Both normalize to per-(unit class, phase)
// seconds plus a run total, so the two formats diff against each
// other.
func ParseObs(label string, raw []byte) (*Table, error) {
	trimmed := strings.TrimLeft(string(raw), " \t\r\n")
	t := NewTable(label)
	if strings.HasPrefix(trimmed, "{") && strings.Contains(trimmed[:min(len(trimmed), 256)], obs.ProfileSchema) {
		var p obs.Profile
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, fmt.Errorf("profdiff: %s: parsing profile: %w", label, err)
		}
		if p.Schema != obs.ProfileSchema {
			return nil, fmt.Errorf("profdiff: %s: schema %q, want %q", label, p.Schema, obs.ProfileSchema)
		}
		var run obs.ProfilePhases
		for _, c := range p.Classes {
			addPhases(t, c.Class, c.Phases)
			t.Add(c.Class+"/units", float64(c.Units))
			run = sumPhases(run, c.Phases)
		}
		addPhases(t, "run", run)
		for _, c := range p.Counters {
			t.Add("counter:"+c.Name, float64(c.Value))
		}
		return t, nil
	}
	// JSONL metrics log: fold rank_iter lines by unit class.
	type rankIter struct {
		Type     string  `json:"type"`
		Unit     string  `json:"unit"`
		Compute  float64 `json:"compute_seconds"`
		DMA      float64 `json:"dma_seconds"`
		Reg      float64 `json:"regcomm_seconds"`
		MPI      float64 `json:"mpi_seconds"`
		Recovery float64 `json:"recovery_seconds"`
		Other    float64 `json:"other_seconds"`
		Total    float64 `json:"total_seconds"`
	}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var run obs.ProfilePhases
	lines := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ri rankIter
		if err := json.Unmarshal([]byte(line), &ri); err != nil {
			return nil, fmt.Errorf("profdiff: %s: parsing JSONL line: %w", label, err)
		}
		if ri.Type != "rank_iter" {
			continue
		}
		ph := obs.ProfilePhases{
			Compute: ri.Compute, DMA: ri.DMA, Reg: ri.Reg, MPI: ri.MPI,
			Recovery: ri.Recovery, Other: ri.Other, Total: ri.Total,
		}
		addPhases(t, obs.UnitClass(ri.Unit), ph)
		run = sumPhases(run, ph)
		lines++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("profdiff: %s: reading: %w", label, err)
	}
	if lines == 0 {
		return nil, fmt.Errorf("profdiff: %s: neither a %s profile nor a metrics JSONL with rank_iter lines", label, obs.ProfileSchema)
	}
	addPhases(t, "run", run)
	return t, nil
}

func sumPhases(a, b obs.ProfilePhases) obs.ProfilePhases {
	return obs.ProfilePhases{
		Compute: a.Compute + b.Compute, DMA: a.DMA + b.DMA,
		Reg: a.Reg + b.Reg, MPI: a.MPI + b.MPI,
		Recovery: a.Recovery + b.Recovery, Other: a.Other + b.Other,
		Total: a.Total + b.Total,
	}
}
