package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The golden-parity suite pins the unified IterEngine loop to runs
// recorded with the pre-refactor per-level drivers: for each case the
// final centroids and per-iteration virtual times must match the
// recorded run BIT FOR BIT, and the assignments and iteration counts
// exactly. Regenerate with UPDATE_GOLDEN=1 go test ./internal/core
// -run Golden (only justified when the simulated machine model itself
// changes deliberately).

// goldenRecord serializes one recorded run. Floats are stored as hex
// IEEE-754 bit patterns so the comparison is exact, immune to decimal
// round-tripping.
type goldenRecord struct {
	Iters      int      `json:"iters"`
	Converged  bool     `json:"converged"`
	Assign     []int    `json:"assign"`
	Centroids  []string `json:"centroid_bits"`
	IterTimes  []string `json:"iter_time_bits"`
	Objectives []string `json:"objective_bits,omitempty"`
	// Recovery is the ledger of a faulty run: the counts as they are,
	// the five overhead seconds (checkpoint, restore, replan, redo,
	// retry) as bits.
	Recovery *goldenRecovery `json:"recovery,omitempty"`
}

type goldenRecovery struct {
	Replans        int      `json:"replans"`
	LostRanks      []int    `json:"lost_ranks"`
	DroppedSamples int      `json:"dropped_samples"`
	Checkpoints    int      `json:"checkpoints"`
	Seconds        []string `json:"seconds_bits"`
}

func recoveryRecord(r *Recovery) *goldenRecovery {
	if r == nil {
		return nil
	}
	return &goldenRecovery{
		Replans: r.Replans, LostRanks: r.LostRanks,
		DroppedSamples: r.DroppedSamples, Checkpoints: r.Checkpoints,
		Seconds: floatsToBits([]float64{r.CheckpointSeconds, r.RestoreSeconds,
			r.ReplanSeconds, r.RedoSeconds, r.RetrySeconds}),
	}
}

// compareRecovery asserts the recovery ledger equals the recorded one,
// seconds bit for bit.
func compareRecovery(t *testing.T, got *Recovery, want *goldenRecovery) {
	t.Helper()
	g := recoveryRecord(got)
	if (g == nil) != (want == nil) {
		t.Fatalf("recovery %+v, golden %+v", got, want)
	}
	if g == nil {
		return
	}
	if g.Replans != want.Replans || g.DroppedSamples != want.DroppedSamples ||
		g.Checkpoints != want.Checkpoints || fmt.Sprint(g.LostRanks) != fmt.Sprint(want.LostRanks) {
		t.Errorf("recovery %+v, golden %+v", g, want)
	}
	compareBits(t, "recovery seconds", bitsToFloats(t, g.Seconds), bitsToFloats(t, want.Seconds))
}

func floatsToBits(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return out
}

func bitsToFloats(t *testing.T, ss []string) []float64 {
	t.Helper()
	out := make([]float64, len(ss))
	for i, s := range ss {
		var bits uint64
		if _, err := fmt.Sscanf(s, "%x", &bits); err != nil {
			t.Fatalf("golden bits %q: %v", s, err)
		}
		out[i] = math.Float64frombits(bits)
	}
	return out
}

// goldenCase is one locked configuration. premise, when set, checks
// that the run still exercises what the case is named for.
type goldenCase struct {
	name    string
	cfg     Config
	src     dataset.Source
	premise func(t *testing.T, tc goldenCase, res *Result)
}

// goldenCases are the seed-dataset configurations the parity suite
// locks down: one per level plus the mode variants (mini-batch,
// stride, non-default batch) whose dataflow differs, and three faulty
// runs from the fault matrix: a crash before the first checkpoint at
// Level 1 and at Level 3, whose restart begins again from the initial
// centroids, and a Level-3 restore that re-stripes a checkpoint over
// a smaller CG group.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	g1, err := dataset.NewGaussianMixture("golden1", 400, 8, 4, 0.05, 3.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dataset.NewGaussianMixture("golden2", 300, 10, 5, 0.15, 2.0, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	g3, err := dataset.NewGaussianMixture("golden3", 240, 16, 4, 0.15, 2.0, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	// The fault matrix's dataset (swkmeans -dataset gauss -n 800 -d 8
	// -components 4) and plans.
	gf, err := dataset.NewGaussianMixture("gauss", 800, 8, 4, 0.2, 2.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(spec string) fault.Plan {
		p, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []goldenCase{
		{
			name: "level1",
			cfg:  Config{Spec: machine.MustSpec(2), Level: Level1, K: 4, MaxIters: 12, Seed: 5, TrackObjective: true},
			src:  g1,
		},
		{
			name: "level1_minibatch",
			cfg:  Config{Spec: machine.MustSpec(2), Level: Level1, K: 4, MaxIters: 8, Seed: 5, MiniBatch: 32, Tolerance: 1e-6},
			src:  g1,
		},
		{
			name: "level1_stride",
			cfg:  Config{Spec: machine.MustSpec(1), Level: Level1, K: 4, MaxIters: 6, Seed: 5, SampleStride: 4},
			src:  g1,
		},
		{
			name: "level2",
			cfg:  Config{Spec: machine.MustSpec(2), Level: Level2, K: 10, MGroup: 4, MaxIters: 12, Seed: 3, TrackObjective: true},
			src:  g2,
		},
		{
			name: "level3",
			cfg:  Config{Spec: machine.MustSpec(2), Level: Level3, K: 8, MPrimeGroup: 4, MaxIters: 12, Seed: 11, TrackObjective: true},
			src:  g3,
		},
		{
			name: "level3_batch7",
			cfg:  Config{Spec: machine.MustSpec(1), Level: Level3, K: 6, MPrimeGroup: 2, MaxIters: 10, Seed: 4, BatchSamples: 7},
			src:  g3,
		},
		{
			name: "level1_crash_before_ckpt",
			cfg: Config{Spec: machine.MustSpec(2), Level: Level1, K: 4, MaxIters: 10, Seed: 1,
				Faults: plan("seed=7; crash=3@2e-5; msg=0.01; retries=32"), CheckpointInterval: 2},
			src:     gf,
			premise: restartedFromInitial,
		},
		{
			name: "level3_crash_before_ckpt",
			cfg: Config{Spec: machine.MustSpec(2), Level: Level3, K: 4, MPrimeGroup: 4, MaxIters: 10, Seed: 1,
				Faults: plan("seed=5; crash=5@2e-5; msg=0.01; retries=32"), CheckpointInterval: 2},
			src:     gf,
			premise: restartedFromInitial,
		},
		{
			name: "level3_restore_restripe",
			cfg: Config{Spec: machine.MustSpec(2), Level: Level3, K: 8, MPrimeGroup: 8, MaxIters: 10, Seed: 1,
				Faults: plan("seed=5; crash=5@1.5e-4; msg=0.01; retries=32"), CheckpointInterval: 1},
			src: gf,
			premise: func(t *testing.T, tc goldenCase, res *Result) {
				t.Helper()
				rec := res.Recovery
				if rec == nil || rec.Replans != 1 || rec.RestoreSeconds <= 0 {
					t.Fatalf("recovery %+v, want one re-plan that restores a checkpoint", rec)
				}
				if got := restartMPrime(t, tc, res); got != 4 {
					t.Fatalf("the restart runs at m'=%d, want a re-stripe from %d to 4", got, res.Plan.MPrimeGroup)
				}
			},
		},
	}
}

// restartedFromInitial is the premise of a crash before the first
// checkpoint: one re-plan, and no restore, so the restart begins again
// from the initial centroids.
func restartedFromInitial(t *testing.T, _ goldenCase, res *Result) {
	t.Helper()
	rec := res.Recovery
	if rec == nil || rec.Replans != 1 || rec.RestoreSeconds != 0 {
		t.Fatalf("recovery %+v, want one re-plan and no restore", rec)
	}
}

// restartMPrime returns the CG-group size a Level-3 run's restart
// epoch executes: the engine's re-plan over the run's survivors.
func restartMPrime(t *testing.T, tc goldenCase, res *Result) int {
	t.Helper()
	lost := make(map[int]bool)
	for _, g := range res.Recovery.LostRanks {
		lost[g] = true
	}
	var alive []int
	for g := 0; g < res.Plan.Ranks; g++ {
		if !lost[g] {
			alive = append(alive, g)
		}
	}
	env := &epochEnv{cfg: tc.cfg.withDefaults(), src: tc.src, plan: res.Plan, epoch: 1, alive: alive,
		model: make([]float64, len(res.Centroids))}
	if err := (level3Engine{}).replan(env); err != nil {
		t.Fatal(err)
	}
	return env.eplan.MPrimeGroup
}

// drivers are the execution engines every golden scenario must agree
// across bit for bit: the default goroutine-per-rank driver and the
// discrete-event scheduler driver.
var drivers = []struct {
	name  string
	sched bool
}{
	{"goroutine", false},
	{"sched", true},
}

func TestEngineGoldenParity(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Stats = trace.NewStats()
			res, err := Run(cfg, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if tc.premise != nil {
				tc.premise(t, tc, res)
			}
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if update {
				rec := goldenRecord{
					Iters:      res.Iters,
					Converged:  res.Converged,
					Assign:     res.Assign,
					Centroids:  floatsToBits(res.Centroids),
					IterTimes:  floatsToBits(res.IterTimes),
					Objectives: floatsToBits(res.Objectives),
					Recovery:   recoveryRecord(res.Recovery),
				}
				data, err := json.MarshalIndent(rec, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("recorded %s", path)
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
			}
			var rec goldenRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			if res.Iters != rec.Iters || res.Converged != rec.Converged {
				t.Errorf("iters/converged = %d/%v, golden %d/%v", res.Iters, res.Converged, rec.Iters, rec.Converged)
			}
			if len(res.Assign) != len(rec.Assign) {
				t.Fatalf("assignment length %d, golden %d", len(res.Assign), len(rec.Assign))
			}
			for i := range rec.Assign {
				if res.Assign[i] != rec.Assign[i] {
					t.Fatalf("assign[%d] = %d, golden %d", i, res.Assign[i], rec.Assign[i])
				}
			}
			compareBits(t, "centroid", res.Centroids, bitsToFloats(t, rec.Centroids))
			compareBits(t, "iter time", res.IterTimes, bitsToFloats(t, rec.IterTimes))
			if len(rec.Objectives) > 0 {
				compareBits(t, "objective", res.Objectives, bitsToFloats(t, rec.Objectives))
			}
			compareRecovery(t, res.Recovery, rec.Recovery)
		})
	}
}

// TestEngineDualDriverParity runs every golden scenario under both
// execution drivers with full observability on and requires the
// outcomes to be indistinguishable: bit-identical centroids,
// per-iteration virtual times (the clocks), objectives, assignments,
// and byte-identical exported traces and metrics. This is the
// bit-exactness contract of the DES refactor — the driver may only
// change how the simulation executes, never what it computes.
func TestEngineDualDriverParity(t *testing.T) {
	type outcome struct {
		res     *Result
		trace   []byte
		metrics []byte
	}
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			runs := make(map[string]outcome, len(drivers))
			for _, drv := range drivers {
				cfg := tc.cfg
				cfg.Stats = trace.NewStats()
				cfg.Sched = drv.sched
				cfg.Obs = obs.NewRecorder()
				res, err := Run(cfg, tc.src)
				if err != nil {
					t.Fatalf("%s driver: %v", drv.name, err)
				}
				var tr, mx bytes.Buffer
				if err := obs.WriteTraceEvents(&tr, cfg.Obs); err != nil {
					t.Fatalf("%s driver trace export: %v", drv.name, err)
				}
				if err := obs.WriteMetricsJSONL(&mx, cfg.Obs); err != nil {
					t.Fatalf("%s driver metrics export: %v", drv.name, err)
				}
				runs[drv.name] = outcome{res: res, trace: tr.Bytes(), metrics: mx.Bytes()}
			}
			g, s := runs["goroutine"], runs["sched"]
			if g.res.Iters != s.res.Iters || g.res.Converged != s.res.Converged {
				t.Errorf("iters/converged: goroutine %d/%v, sched %d/%v",
					g.res.Iters, g.res.Converged, s.res.Iters, s.res.Converged)
			}
			for i := range g.res.Assign {
				if g.res.Assign[i] != s.res.Assign[i] {
					t.Fatalf("assign[%d]: goroutine %d, sched %d", i, g.res.Assign[i], s.res.Assign[i])
				}
			}
			compareBits(t, "centroid", s.res.Centroids, g.res.Centroids)
			compareBits(t, "iter time", s.res.IterTimes, g.res.IterTimes)
			compareBits(t, "objective", s.res.Objectives, g.res.Objectives)
			compareRecovery(t, s.res.Recovery, recoveryRecord(g.res.Recovery))
			if !bytes.Equal(g.trace, s.trace) {
				t.Error("exported Chrome traces differ between drivers")
			}
			if !bytes.Equal(g.metrics, s.metrics) {
				t.Error("exported metrics JSONL differs between drivers")
			}
		})
	}
}

// TestEngineGoldenParitySched replays the golden comparison itself
// under the DES driver: not just driver-vs-driver equality, but
// equality with the recorded pre-refactor runs.
func TestEngineGoldenParitySched(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		t.Skip("golden records are regenerated by TestEngineGoldenParity under the default driver")
	}
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Stats = trace.NewStats()
			cfg.Sched = true
			res, err := Run(cfg, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join("testdata", "golden_"+tc.name+".json"))
			if err != nil {
				t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
			}
			var rec goldenRecord
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			if res.Iters != rec.Iters || res.Converged != rec.Converged {
				t.Errorf("iters/converged = %d/%v, golden %d/%v", res.Iters, res.Converged, rec.Iters, rec.Converged)
			}
			compareBits(t, "centroid", res.Centroids, bitsToFloats(t, rec.Centroids))
			compareBits(t, "iter time", res.IterTimes, bitsToFloats(t, rec.IterTimes))
			compareRecovery(t, res.Recovery, rec.Recovery)
		})
	}
}

// compareBits asserts exact IEEE-754 equality element by element.
func compareBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s count %d, golden %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %.17g (bits %016x), golden %.17g (bits %016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}
