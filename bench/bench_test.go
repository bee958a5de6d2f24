package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func testSpec(t *testing.T) (benchSpec, string) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

// TestSpecIsValid checks BENCHMARK.json against the format's limits
// (names, units, counts, bounds) and against the workloads this
// program implements.
func TestSpecIsValid(t *testing.T) {
	spec, root := testSpec(t)
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 || len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys and %d bytes, want exactly 6 keys within 64 KiB", len(keys), len(raw))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)

	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(spec.Paths) < 1 || len(spec.Paths) > 16 {
		t.Errorf("%d paths", len(spec.Paths))
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q outside [A-Za-z0-9_.-] or longer than 64", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented; want 2-8, all implemented", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		unique(w.Name)
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q, the program runs %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	var setup *specMetric
	for i, m := range spec.EndToEnd {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = &spec.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatal("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound != nil && setup.Bound != nil && *m.Bound > *setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for _, m := range spec.PerLayer {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per-layer %s: unit %q, better %q, bound set %v", m.Name, m.Unit, m.Better, m.Bound != nil)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a reduced shape, untraced
// and traced, and checks that each emits exactly the declared metrics
// with no failed operation, and that every per-layer metric is
// measured by some workload.
func TestWorkloadsSmoke(t *testing.T) {
	spec, root := testSpec(t)
	declared := map[string]bool{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = true
	}
	measured := map[string]bool{}
	cpu := 0.0
	ran := 0
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ran++
			for _, traced := range []bool{false, true} {
				r := newRun(w.name, 3, root, t.TempDir())
				r.small = true
				if traced {
					r.out = t.TempDir()
				}
				if err := execute(w.new(true), r, 400*time.Millisecond, traced); err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				res, err := r.result(spec, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, res.Failed, res.Attempted, r.failures)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.Name, got, m.Unit)
					}
				}
				if !traced {
					continue
				}
				for name := range r.values {
					if !declared[name] && name != "setup_s" {
						t.Errorf("measured %s, which BENCHMARK.json does not declare", name)
					}
					measured[name] = true
					if strings.HasPrefix(name, "cpu.") {
						cpu += r.values[name]
					}
				}
				for _, f := range []string{w.name + ".trace.json", w.name + ".cpu.pprof"} {
					data, err := os.ReadFile(filepath.Join(r.out, f))
					if err != nil || len(data) == 0 {
						t.Errorf("artifact %s: %v", f, err)
					}
					if strings.HasSuffix(f, ".json") && !json.Valid(data) {
						t.Errorf("artifact %s is not JSON", f)
					}
				}
			}
		})
	}
	if t.Failed() || ran < len(workloads) {
		return
	}
	// An idle reduced serving run may take no profile sample; the
	// simulated ones always do.
	if cpu <= 0 {
		t.Error("the CPU profiles attributed no time")
	}
	for name := range declared {
		if !measured[name] {
			t.Errorf("no workload measures per-layer metric %s", name)
		}
	}
}

// TestCorruptedResultsFail feeds each kind of check a wrong answer.
func TestCorruptedResultsFail(t *testing.T) {
	shape := kernelShape{n: 256, d: 4, k: 4, components: 4, spread: 0.25, iters: 3}
	src, init, err := shape.materialize(5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.LloydFrom(src, init, shape.iters, 0)
	if err != nil {
		t.Fatal(err)
	}
	assign := append([]int(nil), ref.Assign...)
	cents := append([]float64(nil), ref.Centroids...)
	if err := agree(ref.Iters, assign, cents, ref); err != nil {
		t.Fatalf("the reference disagrees with itself: %v", err)
	}
	assign[17] = (assign[17] + 1) % shape.k
	if agree(ref.Iters, assign, cents, ref) == nil {
		t.Error("a wrong assignment passed")
	}
	assign[17] = ref.Assign[17]
	cents[3] *= 1 + 1e-6
	if agree(ref.Iters, assign, cents, ref) == nil {
		t.Error("a moved centroid passed")
	}
	if agree(ref.Iters+1, ref.Assign, ref.Centroids, ref) == nil {
		t.Error("a wrong iteration count passed")
	}

	times := []float64{0.25, 0.25}
	if err := vsecCheck(times, times, 0.25, false); err != nil {
		t.Fatal(err)
	}
	if vsecCheck([]float64{0.25, 0.25000000000000006}, times, 0.25, false) == nil {
		t.Error("virtual time one ulp off the first run passed")
	}
	if vsecCheck(times, times, 0.5, false) == nil {
		t.Error("virtual time off the pinned value passed")
	}

	w := &serveRead{want: [][]int{{2, 0}}, dists: [][]float64{{1.5, 0.25}}}
	good := assignResponse{Assignments: []int{2, 0}, Distances: []float64{1.5, 0.25}}
	if err := w.check(0, good); err != nil {
		t.Fatal(err)
	}
	if w.check(0, assignResponse{Assignments: []int{2, 1}, Distances: good.Distances}) == nil {
		t.Error("a wrong served assignment passed")
	}
	if w.check(0, assignResponse{Assignments: good.Assignments, Distances: []float64{1.5, 0.2500001}}) == nil {
		t.Error("a wrong served distance passed")
	}

	r := newRun("x", 1, "", "")
	r.op(nil)
	r.opf(false, "wrong answer")
	if res, _ := r.result(benchSpec{}, true); res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("a failed check gave %+v", res)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/mpi.(*Comm).split":                  "mpi",
		"repro/internal/core.argminDistance":                "core",
		"repro/internal/obs.(*Unit).Record[...]":            "obs",
		"repro/internal/fault.(*Injector).Due":              "other",
		"repro/internal/lint.RunWithOptions":                "other",
		"repro.Cluster":                                     "other",
		"main.(*serveRead).measure":                         "bench",
		"runtime.mallocgc":                                  "",
		"net/http.(*conn).serve":                            "",
		"repro/internal/serve.(*Server).handleAssign.func1": "serve",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
