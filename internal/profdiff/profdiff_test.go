package profdiff

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// writeProfile renders a synthetic recorder's profile to a temp file.
func writeProfile(t *testing.T, dir, name string, drive func(*obs.Recorder)) string {
	t.Helper()
	r := obs.NewRollupRecorder()
	drive(r)
	var buf bytes.Buffer
	if err := obs.WriteProfileJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func drive(extraCompute float64) func(*obs.Recorder) {
	return func(r *obs.Recorder) {
		for g := 0; g < 2; g++ {
			u := r.Unit("rank/" + string(rune('0'+g)))
			u.SetIter(0)
			u.Record(obs.KindCompute, 0, 1+extraCompute, 0, 100)
			u.Record(obs.KindDMA, 1+extraCompute, 1.5+extraCompute, 64, 0)
			u.Finish(1.5 + extraCompute)
		}
		r.AddCounter("sched:dispatches", 10)
	}
}

func TestDiffIdenticalProfiles(t *testing.T) {
	dir := t.TempDir()
	a := writeProfile(t, dir, "a.json", drive(0))
	b := writeProfile(t, dir, "b.json", drive(0))
	ta, err := LoadObs(a)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := LoadObs(b)
	if err != nil {
		t.Fatal(err)
	}
	rows := Diff(ta, tb)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if changed := Changed(rows, 0); len(changed) != 0 {
		t.Errorf("identical profiles report %d changed rows: %+v", len(changed), changed)
	}
}

func TestDiffDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	ta, err := LoadObs(writeProfile(t, dir, "a.json", drive(0)))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := LoadObs(writeProfile(t, dir, "b.json", drive(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	rows := Diff(ta, tb)
	var compute *Row
	for i := range rows {
		if rows[i].Key == "rank/compute_seconds" {
			compute = &rows[i]
		}
	}
	if compute == nil {
		t.Fatalf("no rank/compute_seconds row in %+v", rows)
	}
	// 2 ranks × +0.5s on a 1s baseline: +50%.
	if math.Abs(compute.Rel()-0.5) > 1e-9 {
		t.Errorf("compute rel delta %g, want 0.5", compute.Rel())
	}
	// A 10% threshold flags it; a 100% threshold does not.
	if len(Changed(rows, 0.10)) == 0 {
		t.Error("10% threshold missed a 50% regression")
	}
	for _, r := range Changed(rows, 1.0) {
		if r.Key == "rank/compute_seconds" {
			t.Error("100% threshold flagged a 50% regression")
		}
	}
}

func TestLoadObsMetricsJSONL(t *testing.T) {
	dir := t.TempDir()
	// A metrics log's rank_iter lines normalize into the same row
	// space as a profile of the same run.
	r := obs.NewRecorder()
	drive(0)(r)
	var jsonl bytes.Buffer
	if err := obs.WriteMetricsJSONL(&jsonl, r); err != nil {
		t.Fatal(err)
	}
	jp := filepath.Join(dir, "m.jsonl")
	if err := os.WriteFile(jp, jsonl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	tj, err := LoadObs(jp)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := LoadObs(writeProfile(t, dir, "p.json", drive(0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range Diff(tj, tp) {
		// The profile has counter/units rows the JSONL lacks; the
		// shared phase rows must agree exactly.
		if strings.Contains(row.Key, "_seconds") && row.InOld && row.InNew && row.Rel() != 0 {
			t.Errorf("phase row %s differs across formats: %g vs %g", row.Key, row.Old, row.New)
		}
	}
}

func TestLoadObsRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	if err := os.WriteFile(p, []byte("not an export\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadObs(p); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadObs(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestDiffNewAndGoneRows: a key on one side only is a row of its own,
// "new" or "gone", and a new-only row's relative change is +Inf.
func TestDiffNewAndGoneRows(t *testing.T) {
	to, tn := NewTable("old"), NewTable("new")
	to.Add("a", 100)
	to.Add("b", 200)
	tn.Add("a", 150)
	tn.Add("c", 50)
	rows := Diff(to, tn)
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Key] = r
	}
	if r := byKey["a"]; math.Abs(r.Rel()-0.5) > 1e-9 {
		t.Errorf("a rel %g, want 0.5", r.Rel())
	}
	if r := byKey["b"]; r.InNew {
		t.Error("b should be gone in new")
	}
	if r := byKey["c"]; r.InOld || !math.IsInf(r.Rel(), 1) {
		t.Errorf("c should be new-only with +Inf rel, got %+v", r)
	}
	var buf bytes.Buffer
	if err := Render(&buf, rows, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"+50.00%", "new", "gone"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// FuzzParseObs feeds arbitrary bytes to both of ParseObs' formats,
// seeded with a real profile, a real metrics log and near misses of
// each: it must return a table or an error, never panic, and a table
// always carries the run rows.
func FuzzParseObs(f *testing.F) {
	var prof, jsonl bytes.Buffer
	pr := obs.NewRollupRecorder()
	drive(0)(pr)
	if err := obs.WriteProfileJSON(&prof, pr); err != nil {
		f.Fatal(err)
	}
	mr := obs.NewRecorder()
	drive(0.5)(mr)
	if err := obs.WriteMetricsJSONL(&jsonl, mr); err != nil {
		f.Fatal(err)
	}
	f.Add(prof.Bytes())
	f.Add(jsonl.Bytes())
	f.Add(prof.Bytes()[:prof.Len()/2])
	f.Add([]byte(`{"schema":"` + obs.ProfileSchema + `","classes":[{"class":"rank","units":-1}]}`))
	f.Add([]byte("{\"type\":\"rank_iter\",\"unit\":\"\",\"total_seconds\":1e999}\n\n{"))
	f.Add([]byte("not an export\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		tab, err := ParseObs("fuzz", raw)
		if err != nil {
			return
		}
		found := false
		for _, row := range Diff(tab, tab) {
			found = found || strings.HasPrefix(row.Key, "run/")
		}
		if !found {
			t.Fatalf("parsed %q without run rows", raw)
		}
	})
}
