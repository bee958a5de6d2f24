package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"testing"
)

// driveSynthetic emits an identical span workload into any recorder:
// three ranks with skewed compute (rank/2 is the straggler), two
// fine-grained CPE units in distinct CGs, a marker track, recovery
// work outside iterations, and run counters. Every emission path of
// the Unit API is exercised — Record, RecordCost, Begin/End, SetIter,
// Finish — so mode-equivalence tests cover the whole surface.
func driveSynthetic(r *Recorder) {
	for g := 0; g < 3; g++ {
		u := r.Unit(fmt.Sprintf("rank/%d", g))
		t := 0.0
		for it := 0; it < 2; it++ {
			u.SetIter(it)
			d := 0.5 + 0.1*float64(g)
			u.Record(KindCompute, t, t+d, 0, 1000)
			t += d
			u.Record(KindDMA, t, t+0.25, 256, 0)
			t += 0.25
			sec := u.Begin(t)
			u.End(sec, KindMPI+"allreduce", t+0.125, 64, 0)
			t += 0.125
		}
		u.SetIter(-1)
		u.Record(KindCheckpoint, t, t+0.1, 32, 0)
		t += 0.1
		// Finish past the cursor: the trailing gap becomes an "other"
		// filler, which must fold like any other span.
		u.Finish(t + 0.05)
	}
	for i := 0; i < 2; i++ {
		u := r.Unit(fmt.Sprintf("cg%d/cpe/%d", i, i))
		u.SetIter(0)
		u.RecordCost(0, 0.5, 0.25, 0.125, 100, 200, 300)
	}
	m := r.Unit(IterUnit)
	m.Record(KindIter, 0, 1, 0, 0)
	r.AddCounter("sched:dispatches", 42)
	r.AddCounter("sched:dispatches", 8)
	r.MaxCounter("sched:max_queue_depth", 7)
	r.MaxCounter("sched:max_queue_depth", 5)
}

func TestRollupRetainsNoSpans(t *testing.T) {
	r := NewRollupRecorder()
	if !r.rollup {
		t.Fatal("NewRollupRecorder() is not in rollup mode")
	}
	driveSynthetic(r)
	for _, u := range r.Units() {
		if n := len(u.Spans()); n != 0 {
			t.Errorf("unit %s retained %d spans in rollup mode", u.Name(), n)
		}
	}
}

// TestRollupMatchesSummarize is the equivalence contract: the two
// recorder modes produce bit-identical derived tables — not merely
// close — because they perform the same additions in the same order.
func TestRollupMatchesSummarize(t *testing.T) {
	span, roll := NewRecorder(), NewRollupRecorder()
	driveSynthetic(span)
	driveSynthetic(roll)

	if got, want := Summarize(roll), Summarize(span); !reflect.DeepEqual(got, want) {
		t.Errorf("Summarize diverges across modes:\nrollup: %+v\nspan:   %+v", got, want)
	}
	if got, want := UnitTotals(roll), UnitTotals(span); !reflect.DeepEqual(got, want) {
		t.Errorf("UnitTotals diverges across modes:\nrollup: %+v\nspan:   %+v", got, want)
	}

	var pSpan, pRoll bytes.Buffer
	if err := WriteProfileJSON(&pSpan, span); err != nil {
		t.Fatal(err)
	}
	if err := WriteProfileJSON(&pRoll, roll); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pSpan.Bytes(), pRoll.Bytes()) {
		t.Errorf("profile JSON diverges across modes:\nspan:\n%s\nrollup:\n%s", pSpan.String(), pRoll.String())
	}

	var aSpan, aRoll bytes.Buffer
	if err := WriteAggregateTrace(&aSpan, span, 2); err != nil {
		t.Fatal(err)
	}
	if err := WriteAggregateTrace(&aRoll, roll, 2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aSpan.Bytes(), aRoll.Bytes()) {
		t.Error("aggregate trace diverges across modes")
	}
}

func TestProfileExportDeterministic(t *testing.T) {
	render := func() (string, string, string) {
		r := NewRollupRecorder()
		driveSynthetic(r)
		var p, f, a bytes.Buffer
		if err := WriteProfileJSON(&p, r); err != nil {
			t.Fatal(err)
		}
		if err := WriteFolded(&f, BuildProfile(r)); err != nil {
			t.Fatal(err)
		}
		if err := WriteAggregateTrace(&a, r, 3); err != nil {
			t.Fatal(err)
		}
		return p.String(), f.String(), a.String()
	}
	p1, f1, a1 := render()
	p2, f2, a2 := render()
	if p1 != p2 {
		t.Error("profile JSON not byte-deterministic")
	}
	if f1 != f2 {
		t.Error("folded stacks not byte-deterministic")
	}
	if a1 != a2 {
		t.Error("aggregate trace not byte-deterministic")
	}
	if !json.Valid([]byte(p1)) || !json.Valid([]byte(a1)) {
		t.Error("JSON exports do not parse")
	}
}

func TestProfileContents(t *testing.T) {
	r := NewRollupRecorder()
	driveSynthetic(r)
	p := BuildProfile(r)
	if p.Schema != ProfileSchema {
		t.Errorf("schema %q", p.Schema)
	}
	// 3 ranks + 2 cpe units; the marker track is excluded.
	if p.Units != 5 {
		t.Errorf("units = %d, want 5", p.Units)
	}
	if p.Iters != 2 {
		t.Errorf("iters = %d, want 2", p.Iters)
	}
	var classes []string
	for _, c := range p.Classes {
		classes = append(classes, c.Class)
	}
	if !reflect.DeepEqual(classes, []string{"cg/cpe", "rank"}) {
		t.Errorf("classes = %v", classes)
	}
	// Entries are (class, iter, kind)-sorted and their counts cover
	// every span: 3 ranks × (2 iters × 3 kinds + checkpoint + other).
	var rankSpans uint64
	prev := ProfileEntry{Iter: -2}
	for _, e := range p.Entries {
		if e.Class == "rank" {
			rankSpans += e.Count
		}
		if e.Class == prev.Class && (e.Iter < prev.Iter || (e.Iter == prev.Iter && e.Kind <= prev.Kind)) {
			t.Errorf("entries out of order at %+v after %+v", e, prev)
		}
		if e.Class != prev.Class {
			prev = ProfileEntry{Iter: -2}
		} else {
			prev = e
		}
		if e.Count == 0 {
			t.Errorf("empty cell %+v", e)
		}
		var histN uint64
		for _, c := range e.Hist {
			histN += c
		}
		if histN != e.Count {
			t.Errorf("cell %s/%d/%s: hist holds %d, count %d", e.Class, e.Iter, e.Kind, histN, e.Count)
		}
	}
	if rankSpans != 3*(2*3+2) {
		t.Errorf("rank class covers %d spans, want %d", rankSpans, 3*(2*3+2))
	}
	// The straggler table leads with the slowest rank.
	if len(p.TopUnits) == 0 || p.TopUnits[0].Unit != "rank/2" {
		t.Errorf("top unit = %+v, want rank/2 first", p.TopUnits)
	}
	// Counters: accumulated, high-watered, name-sorted.
	want := []Counter{
		{Name: "sched:dispatches", Value: 50},
		{Name: "sched:max_queue_depth", Value: 7},
	}
	if !reflect.DeepEqual(p.Counters, want) {
		t.Errorf("counters = %+v, want %+v", p.Counters, want)
	}
}

func TestUnitClass(t *testing.T) {
	cases := map[string]string{
		"rank/12":    "rank",
		"cpe/3":      "cpe",
		"cg1/cpe/7":  "cg/cpe",
		"iterations": "iterations",
		"7":          "unit",
		"":           "unit",
	}
	for in, want := range cases {
		if got := UnitClass(in); got != want {
			t.Errorf("UnitClass(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCountersNilSafe(t *testing.T) {
	var r *Recorder
	r.AddCounter("x", 1)
	r.MaxCounter("x", 1)
	if c := r.Counters(); c != nil {
		t.Errorf("nil recorder counters = %v", c)
	}
}

func TestWriteFoldedFormat(t *testing.T) {
	r := NewRollupRecorder()
	driveSynthetic(r)
	var buf bytes.Buffer
	if err := WriteFolded(&buf, BuildProfile(r)); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`^[a-z/]+;iter:-?\d+;[a-z:]+ \d+$`)
	for _, l := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		if !line.Match(l) {
			t.Errorf("folded line %q does not match the format", l)
		}
	}
}

func TestAggregateTraceShape(t *testing.T) {
	r := NewRollupRecorder()
	driveSynthetic(r)
	var buf bytes.Buffer
	const topK = 2
	if err := WriteAggregateTrace(&buf, r, topK); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
			Args *struct {
				Count uint64 `json:"count"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var lanes, spans int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			lanes++
		case "X":
			spans++
			if ev.Args == nil || ev.Args.Count == 0 {
				t.Errorf("aggregate span %q has no count", ev.Name)
			}
		}
	}
	// 2 classes + topK straggler lanes.
	if lanes != 2+topK {
		t.Errorf("%d lanes, want %d", lanes, 2+topK)
	}
	if spans == 0 {
		t.Error("no aggregate spans")
	}
}
