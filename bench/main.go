// Command bench is the repository benchmark. It runs one or more
// workloads, each in a fresh process, generates every input from
// -seed, verifies every output, and prints the end-to-end metrics
// BENCHMARK.json declares (or, with -trace 1, the per-layer metrics)
// as the last line of standard output:
//
//	{"correct":true,"attempted":36,"failed":0,"metrics":{"latency_ms":{"value":533.1,"unit":"ms"},...}}
//
// Run it from the repository root, through bench/run.sh or directly:
//
//	go -C bench run . -workload l1-kernel -seed 1 -seconds 25 -trace 0
//
// See bench/README.md for the workloads, the metric catalogue and how
// to read the traced run's artifacts.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads lists every workload in the order a full run executes
// them; the names match BENCHMARK.json.
var workloads = []struct {
	name string
	new  func(small bool) workload
}{
	{"l1-kernel", newL1Kernel},
	{"des-4k", newDES4K},
	{"cpe-mesh", newCPEMesh},
	{"serve-read", newServeRead},
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds the inputs and starts any service the operation
	// needs, and returns how long the part that counts as set-up took.
	// The harness tears it down and repeats it, and keeps the last one.
	setup(r *run) (time.Duration, error)
	// measure runs the workload's operation for about d, verifying
	// every output, and returns the operation's latency samples.
	measure(r *run, d time.Duration) (measurement, error)
	// layers records the per-layer metrics the workload owns; it runs
	// after measure, in traced runs only.
	layers(r *run) error
	// close releases what setup built.
	close()
}

// A workload is set up at least setupMinReps and at most setupMaxReps
// times, until setupBudget has been spent; setup_s is the median.
const (
	setupMinReps = 3
	setupMaxReps = 100
	setupBudget  = 500 * time.Millisecond
)

func main() {
	var (
		names   = flag.String("workload", "all", "comma-separated workloads to run, or all")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 25, "seconds each workload measures for")
		traced  = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload a,b] [-seed N] [-seconds S] [-trace 0|1]")
		os.Exit(2)
	}
	list, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	var res result
	if len(list) == 1 {
		res, err = runOne(spec, list[0], root, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	} else {
		res, err = runChildren(list, *seed, *seconds, *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// selectWorkloads resolves the -workload flag.
func selectWorkloads(arg string) ([]string, error) {
	if arg == "all" {
		var all []string
		for _, w := range workloads {
			all = append(all, w.name)
		}
		return all, nil
	}
	var out []string
	for _, name := range strings.Split(arg, ",") {
		if findWorkload(name) == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, name)
	}
	return out, nil
}

func findWorkload(name string) func(bool) workload {
	for _, w := range workloads {
		if w.name == name {
			return w.new
		}
	}
	return nil
}

// runOne runs one workload in this process and renders its metrics.
func runOne(spec benchSpec, name, root string, seed uint64, budget time.Duration, traced bool) (result, error) {
	work := filepath.Join(root, ".bench_build", "work-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(work)
	r := newRun(name, seed, root, work)
	if traced {
		r.out = filepath.Join(root, "bench", "out")
	}
	if err := execute(findWorkload(name)(false), r, budget, traced); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	r.report(os.Stdout)
	return r.result(spec, traced)
}

// runChildren runs each workload in a fresh child process, so peak
// RSS and garbage-collector state belong to one workload, and merges
// their results; metric names gain a "<workload>/" prefix.
func runChildren(names []string, seed uint64, seconds, traced int) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return result{}, err
		}
		if err := cmd.Start(); err != nil {
			return result{}, err
		}
		last, err := relayLines(stdout, os.Stdout)
		// A failed check exits 1 after printing its result; anything
		// else without a result line is a broken run.
		var exitErr *exec.ExitError
		if werr := cmd.Wait(); werr != nil && !errors.As(werr, &exitErr) {
			return result{}, fmt.Errorf("%s: %w", name, werr)
		}
		if err != nil {
			return result{}, fmt.Errorf("%s: reading output: %w", name, err)
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return result{}, fmt.Errorf("%s: no result line: %w", name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"/"+k] = v
		}
	}
	return total, nil
}

// relayLines copies a child's output through, holding back the last
// line (its result), which it returns.
func relayLines(from io.Reader, to io.Writer) (string, error) {
	sc := bufio.NewScanner(from)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	last := ""
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(to, last)
		}
		last = sc.Text()
	}
	return last, sc.Err()
}

// execute sets a workload up, measures it, and in a traced run also
// measures it under the CPU profiler and records its layers.
func execute(w workload, r *run, budget time.Duration, traced bool) error {
	defer w.close()
	// setup_s is an end-to-end metric, so a traced run sets up once.
	minReps, setupLimit := setupMinReps, setupBudget
	if traced {
		minReps, setupLimit = 1, 0
	}
	var setups []float64
	for spent := time.Duration(0); len(setups) < minReps || (spent < setupLimit && len(setups) < setupMaxReps); {
		if len(setups) > 0 {
			w.close()
			runtime.GC()
		}
		dt, err := w.setup(r)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		spent += dt
		setups = append(setups, dt.Seconds())
	}
	r.sample("setup_s", setups)
	if !traced {
		m, err := w.measure(r, budget)
		if err != nil {
			return err
		}
		r.sample("latency_ms", m.all())
		if m.wall != nil {
			r.note("wall_ms", m.wall)
		}
		r.set("peak_rss_mb", peakRSSMB())
		return nil
	}
	// Half the budget untraced, half traced: their ratio is the
	// tracing overhead.
	plain, err := w.measure(r, budget/2)
	if err != nil {
		return err
	}
	r.tr = newTracer(r.name, r.seed)
	if err := r.profile(func() error {
		var err error
		r.traced, err = w.measure(r, budget/2)
		return err
	}); err != nil {
		return err
	}
	r.set("trace_overhead", r.traced.latency()/plain.latency())
	r.set("tail_ms", plain.tail())
	r.phase = r.tr.start("layers", 0, 0)
	err = w.layers(r)
	r.tr.end(r.phase)
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	return r.writeArtifacts()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repoRoot walks up from the working directory to the go.mod of the
// module under test.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("run from inside the repository: no go.mod of module repro above the working directory")
		}
		dir = parent
	}
}

// benchSpec is the part of BENCHMARK.json the program reads: which
// metrics to print, with which units.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
