package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// writeProfile renders a synthetic run's profile, with the straggler
// rank's compute stretched by skew seconds per iteration.
func writeProfile(t *testing.T, dir, name string, skew float64) string {
	t.Helper()
	r := obs.NewRollupRecorder()
	for g := 0; g < 2; g++ {
		u := r.Unit("rank/" + string(rune('0'+g)))
		extra := 0.0
		if g == 1 {
			extra = skew
		}
		u.SetIter(0)
		u.Record(obs.KindCompute, 0, 1+extra, 0, 100)
		u.Record(obs.KindDMA, 1+extra, 1.5+extra, 64, 0)
		u.Finish(1.5 + extra)
	}
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

func TestObsdiffExitContract(t *testing.T) {
	dir := t.TempDir()
	a := writeProfile(t, dir, "a.json", 0)
	b := writeProfile(t, dir, "b.json", 0)
	c := writeProfile(t, dir, "c.json", 0.5)

	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{a, b}); code != 0 {
		t.Errorf("identical profiles exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "no deltas") {
		t.Errorf("zero-delta output:\n%s", stdout.String())
	}

	stdout.Reset()
	if code := run(&stdout, &stderr, []string{a, c}); code != 1 {
		t.Errorf("diverging profiles exit = %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "rank/compute_seconds") {
		t.Errorf("diff output does not name the regressed row:\n%s", stdout.String())
	}

	// A generous threshold accepts the divergence.
	stdout.Reset()
	if code := run(&stdout, &stderr, []string{"-threshold", "0.9", a, c}); code != 0 {
		t.Errorf("thresholded diff exit = %d, want 0", code)
	}

	// Usage and unreadable input exit 2.
	if code := run(&stdout, &stderr, []string{a}); code != 2 {
		t.Errorf("one-arg exit = %d, want 2", code)
	}
	if code := run(&stdout, &stderr, []string{a, filepath.Join(dir, "missing.json")}); code != 2 {
		t.Errorf("missing-file exit = %d, want 2", code)
	}
	if code := run(&stdout, &stderr, []string{"-threshold", "-1", a, b}); code != 2 {
		t.Errorf("negative-threshold exit = %d, want 2", code)
	}
}
