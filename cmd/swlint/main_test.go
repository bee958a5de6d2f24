package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

func TestListRules(t *testing.T) {
	cfg, err := lint.DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr.String())
	}
	rules := lint.AllRules(cfg)
	if n := strings.Count(stdout.String(), "\n"); n != len(rules) {
		t.Errorf("-list printed %d lines, want one per rule (%d):\n%s", n, len(rules), stdout.String())
	}
	for _, r := range rules {
		if !strings.Contains(stdout.String(), r.ID()) {
			t.Errorf("-list output missing rule %s:\n%s", r.ID(), stdout.String())
		}
	}
}

func TestUsageOnNoPatterns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no patterns exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Errorf("expected usage on stderr, got: %s", stderr.String())
	}
}

func TestUnknownFormatExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "xml", "./internal/vclock"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown format exited %d, want 2", code)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-cache", "./internal/vclock"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean package exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", stdout.String())
	}
}

// TestSeededViolationExitsNonZero is the acceptance check that a rule
// violation makes swlint fail with the rule ID and position: it lints
// the float-eq fixture tree directly.
func TestSeededViolationExitsNonZero(t *testing.T) {
	cfg, err := lint.DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(cfg.ModuleRoot, "internal", "lint", "testdata", "src", "floateq")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-cache", "-no-baseline", fixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("seeded violations exited %d, want 1\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "float-eq") || !strings.Contains(out, "floateq.go:8:") {
		t.Errorf("output missing rule ID or position:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("expected finding count on stderr, got: %s", stderr.String())
	}
}

// TestSARIFOutput pins the -format sarif path: findings still exit 1,
// and stdout is a valid SARIF 2.1.0 document naming the rule.
func TestSARIFOutput(t *testing.T) {
	cfg, err := lint.DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(cfg.ModuleRoot, "internal", "lint", "testdata", "src", "floateq")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-cache", "-no-baseline", "-format", "sarif", fixture}, &stdout, &stderr); code != 1 {
		t.Fatalf("sarif run exited %d, want 1\nstderr: %s", code, stderr.String())
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout.String())
	}
	if doc.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", doc.Version)
	}
	if len(doc.Runs) != 1 || len(doc.Runs[0].Results) == 0 || doc.Runs[0].Results[0].RuleID != "float-eq" {
		t.Errorf("unexpected results: %+v", doc.Runs)
	}
}

// TestBaselineFlow pins -update-baseline and -baseline: recording the
// seeded findings makes the next run exit clean.
func TestBaselineFlow(t *testing.T) {
	cfg, err := lint.DefaultConfig(".")
	if err != nil {
		t.Fatal(err)
	}
	fixture := filepath.Join(cfg.ModuleRoot, "internal", "lint", "testdata", "src", "floateq")
	bpath := filepath.Join(t.TempDir(), "baseline.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-cache", "-baseline", bpath, "-update-baseline", fixture}, &stdout, &stderr); code != 2 {
		t.Fatalf("-update-baseline without -baseline-reason exited %d, want 2 (usage error)\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-baseline-reason") {
		t.Errorf("missing-reason error does not name the flag:\n%s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-no-cache", "-baseline", bpath, "-update-baseline",
		"-baseline-reason", "fixture debt accepted for the test", fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("-update-baseline exited %d\nstderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(bpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fixture debt accepted for the test") {
		t.Errorf("baseline entries do not carry the supplied reason:\n%s", data)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-no-cache", "-baseline", bpath, fixture}, &stdout, &stderr); code != 0 {
		t.Fatalf("baselined run exited %d, want 0\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("baselined run still reports findings:\n%s", stdout.String())
	}
}
