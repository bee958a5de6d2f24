// Command swkmeans runs multi-level k-means on the simulated Sunway
// TaihuLight: pick a workload, a partition level and a machine size,
// and it reports the partition plan, simulated per-iteration
// completion times (the paper's metric), the traffic breakdown and
// clustering quality against the generated ground truth.
//
// Examples:
//
//	swkmeans -dataset kegg -scale 8 -level 1 -k 64 -nodes 1
//	swkmeans -dataset imgnet -scale 2048 -d 3072 -level 3 -k 128 -nodes 2
//	swkmeans -dataset gauss -n 5000 -d 64 -components 8 -level 2 -k 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/report"
	"repro/internal/sw26010"
	"repro/internal/trace"
)

func main() {
	var (
		dsName     = flag.String("dataset", "gauss", "workload: gauss, hard, kegg, road, census, imgnet, landcover")
		scale      = flag.Int("scale", 64, "divide the published sample count by this factor (shaped datasets)")
		n          = flag.Int("n", 4096, "samples (gauss dataset)")
		d          = flag.Int("d", 32, "dimensions (gauss and imgnet datasets)")
		components = flag.Int("components", 8, "ground-truth components (gauss dataset)")
		level      = flag.Int("level", 3, "partition level: 1, 2, 3, or 0 = auto")
		k          = flag.Int("k", 8, "centroids")
		nodes      = flag.Int("nodes", 1, "SW26010 nodes to simulate")
		iters      = flag.Int("iters", 10, "max Lloyd iterations")
		seed       = flag.Uint64("seed", 1, "deterministic seed")
		stride     = flag.Int("stride", 1, "process every stride-th sample (timing mode when > 1)")
		mgroup     = flag.Int("mgroup", 0, "Level-2 CPE group size (0 = auto)")
		mprime     = flag.Int("mprime", 0, "Level-3 CG group size (0 = auto)")
		useKpp     = flag.Bool("kmeanspp", false, "use k-means++ initialization")
		algo       = flag.String("algo", "sim", "sim (simulated machine), a host baseline (lloyd, hamerly, elkan, minibatch), or a fine-grained CPE-level kernel (fine1, fine2, fine3)")
		savePath   = flag.String("save", "", "write the trained centroid model to this file")
		loadPath   = flag.String("load", "", "inference mode: classify the dataset with an existing centroid model instead of training")
		summary    = flag.Bool("summary", false, "emit a JSON result summary to stdout")
		preset     = flag.String("preset", "", "machine preset overriding -nodes: taihulight, headline, comparison, processor")
		specPath   = flag.String("spec", "", "load the machine spec from a JSON file (see machine.WriteJSON)")
		faultSpec  = flag.String("faults", "", "deterministic fault plan, e.g. \"seed=7; crash=1@2e-5; msg=0.01; link=*@0:1x4\" (see docs/FAULT_TOLERANCE.md)")
		ckpt       = flag.Int("ckpt", 0, "checkpoint interval in iterations under -faults (0 = default)")
		dropLost   = flag.Bool("droplost", false, "drop a failed rank's data shard instead of redistributing it")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of the simulated run to this file (see docs/OBSERVABILITY.md)")
		metricsOut = flag.String("metrics-out", "", "write a JSONL span and per-iteration metrics log of the simulated run to this file")
		timeline   = flag.Bool("timeline", false, "render an ASCII per-rank virtual-time timeline after the run")
		rollup     = flag.Bool("rollup", false, "aggregate observability online instead of retaining spans: bounded memory at any rank count; excludes -timeline, and -trace-out switches to the aggregate form")
		profileOut = flag.String("profile-out", "", "write the per-phase aggregate profile JSON of the simulated run to this file (see docs/OBSERVABILITY.md)")
		foldedOut  = flag.String("folded-out", "", "write the profile as folded stacks for flamegraph rendering to this file")
		traceAgg   = flag.Int("trace-agg", 0, "export -trace-out in aggregate form: one rollup lane per unit class plus this many top straggler lanes (0 = full per-unit trace; implied 8 under -rollup)")
		schedFlag  = flag.Bool("sched", false, "run the simulated machine on the discrete-event scheduler driver (bit-identical to the default goroutine driver; scales to thousands of ranks)")
		cpuprofile = flag.String("cpuprofile", "", "write a host CPU profile of this process to the given file")
		memprofile = flag.String("memprofile", "", "write a host heap profile to the given file on exit")
	)
	flag.Parse()
	// Exit code contract: 2 for unusable flags (flag.Parse exits 2 on
	// syntax errors itself; semantic flag errors follow suit), 1 for
	// run failures.
	var faults fault.Plan
	if *faultSpec != "" {
		var err error
		faults, err = fault.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swkmeans: -faults:", err)
			os.Exit(2)
		}
	}
	if *ckpt < 0 {
		fmt.Fprintln(os.Stderr, "swkmeans: -ckpt must be non-negative")
		os.Exit(2)
	}
	if *traceAgg < 0 {
		fmt.Fprintln(os.Stderr, "swkmeans: -trace-agg must be non-negative")
		os.Exit(2)
	}
	if *rollup && *timeline {
		fmt.Fprintln(os.Stderr, "swkmeans: -timeline needs the raw spans that -rollup folds away; pick one")
		os.Exit(2)
	}
	opts := options{
		out:    os.Stdout,
		dsName: *dsName, scale: *scale, n: *n, d: *d, components: *components,
		level: *level, k: *k, nodes: *nodes, iters: *iters, seed: *seed,
		stride: *stride, mgroup: *mgroup, mprime: *mprime, useKpp: *useKpp,
		algo: *algo, savePath: *savePath, loadPath: *loadPath, summary: *summary,
		preset: *preset, specPath: *specPath,
		faults: faults, ckpt: *ckpt, dropLost: *dropLost,
		traceOut: *traceOut, metricsOut: *metricsOut, timeline: *timeline,
		rollup: *rollup, profileOut: *profileOut, foldedOut: *foldedOut,
		traceAgg: *traceAgg,
		sched:    *schedFlag,
	}
	if err := checkModeFlags(opts); err != nil {
		fmt.Fprintln(os.Stderr, "swkmeans:", err)
		os.Exit(2)
	}
	if opts.rollup && opts.traceAgg == 0 {
		// A rollup recorder has no spans to export in full; the trace
		// output, when asked for, is the aggregate form.
		opts.traceAgg = 8
	}
	if err := checkFaultUnits(opts); err != nil {
		fmt.Fprintln(os.Stderr, "swkmeans: -faults:", err)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "swkmeans: -cpuprofile:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "swkmeans: -cpuprofile:", err)
			os.Exit(2)
		}
	}
	err := run(opts)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if merr := writeMemProfile(*memprofile); merr != nil && err == nil {
			err = merr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swkmeans:", err)
		os.Exit(1)
	}
}

// writeMemProfile dumps a heap profile after a final GC so the numbers
// reflect live allocations, not garbage awaiting collection.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-memprofile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("-memprofile: %w", err)
	}
	return f.Close()
}

type options struct {
	out                     io.Writer
	dsName                  string
	scale, n, d, components int
	level, k, nodes, iters  int
	seed                    uint64
	stride, mgroup, mprime  int
	useKpp                  bool
	algo                    string
	savePath                string
	loadPath                string
	summary                 bool
	preset                  string
	specPath                string
	faults                  fault.Plan
	ckpt                    int
	dropLost                bool
	traceOut, metricsOut    string
	timeline                bool
	rollup                  bool
	profileOut, foldedOut   string
	traceAgg                int
	sched                   bool
	rec                     *obs.Recorder
}

// checkModeFlags refuses a flag that the chosen mode would silently
// drop: the simulated machine's fault, checkpoint, stride, driver and
// summary flags under a fine-grained kernel, a host baseline or -load,
// the observability flags under a host baseline or -load (only the
// simulated machine is traced), -save under a fine-grained kernel or
// -load, a -mgroup or -mprime that the chosen kernel has no group for,
// -trace-agg without -trace-out, and -ckpt or -droplost without a
// -faults plan that injects something, the only case in which the
// simulated machine reads them. The error names the flag.
func checkModeFlags(o options) error {
	infer := o.loadPath != ""
	sim := o.algo == "sim" && !infer
	fine := strings.HasPrefix(o.algo, "fine") && !infer
	traced := sim || fine
	mode := "-algo " + o.algo
	switch {
	case infer:
		mode = "-load"
	case sim:
		mode = fmt.Sprintf("-level %d", o.level)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-algo", infer && o.algo != "sim"},
		{"-faults", !sim && !reflect.DeepEqual(o.faults, fault.Plan{})},
		{"-ckpt", !sim && o.ckpt != 0},
		{"-droplost", !sim && o.dropLost},
		{"-stride", !sim && o.stride != 1},
		{"-sched", !sim && o.sched},
		{"-summary", !sim && o.summary},
		{"-save", (fine || infer) && o.savePath != ""},
		{"-kmeanspp", infer && o.useKpp},
		{"-mgroup", o.mgroup != 0 && !(fine && o.algo == "fine2") && !(sim && (o.level == 0 || o.level == 2))},
		{"-mprime", o.mprime != 0 && !(fine && o.algo == "fine3") && !(sim && (o.level == 0 || o.level == 3))},
		{"-trace-out", !traced && o.traceOut != ""},
		{"-metrics-out", !traced && o.metricsOut != ""},
		{"-timeline", !traced && o.timeline},
		{"-profile-out", !traced && o.profileOut != ""},
		{"-folded-out", !traced && o.foldedOut != ""},
		{"-rollup", !traced && o.rollup},
	} {
		if f.set {
			return fmt.Errorf("%s does not use %s; drop the flag", mode, f.name)
		}
	}
	if o.traceAgg != 0 && o.traceOut == "" {
		return fmt.Errorf("-trace-agg shapes the -trace-out export; add -trace-out or drop the flag")
	}
	if o.faults.Empty() && (o.ckpt != 0 || o.dropLost) {
		name := "-ckpt"
		if o.ckpt == 0 {
			name = "-droplost"
		}
		return fmt.Errorf("%s takes effect only under a -faults plan that injects a fault; add one or drop the flag", name)
	}
	return nil
}

// checkFaultUnits refuses a -faults plan that names a core group the
// machine lacks, before anything is printed.
func checkFaultUnits(o options) error {
	if o.faults.Empty() {
		return nil
	}
	spec, err := o.buildSpec()
	if err != nil {
		return nil // run reports the spec's own error, exit 1 as without -faults
	}
	return o.faults.CheckUnits(spec.CGs())
}

// obsRequested reports whether any observability output was asked for.
func (o options) obsRequested() bool {
	return o.traceOut != "" || o.metricsOut != "" || o.timeline ||
		o.profileOut != "" || o.foldedOut != ""
}

// buildSpec resolves the machine: an explicit JSON spec wins, then a
// preset, then -nodes.
func (o options) buildSpec() (*machine.Spec, error) {
	if o.specPath != "" {
		f, err := os.Open(o.specPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return machine.ReadJSON(f)
	}
	if o.preset != "" {
		return machine.Preset(o.preset)
	}
	return machine.NewSpec(o.nodes)
}

// buildSource constructs the selected workload and returns it along
// with its ground-truth labeler (nil when unknown).
func buildSource(name string, scale, n, d, components int, seed uint64) (dataset.Source, func(int) int, error) {
	switch name {
	case "gauss":
		g, err := dataset.NewGaussianMixture("gauss", n, d, components, 0.2, 2.0, seed)
		if err != nil {
			return nil, nil, err
		}
		return g, g.TrueLabel, nil
	case "kegg":
		g, err := dataset.Kegg(scale)
		if err != nil {
			return nil, nil, err
		}
		return g, g.TrueLabel, nil
	case "road":
		g, err := dataset.Road(scale)
		if err != nil {
			return nil, nil, err
		}
		return g, g.TrueLabel, nil
	case "census":
		g, err := dataset.Census(scale)
		if err != nil {
			return nil, nil, err
		}
		return g, g.TrueLabel, nil
	case "imgnet":
		g, err := dataset.ImgNet(d, scale)
		if err != nil {
			return nil, nil, err
		}
		return g, g.TrueLabel, nil
	case "landcover":
		side := 2448 / max(1, scale)
		lc, err := dataset.NewLandCover(max(8, side), max(8, side), d, seed)
		if err != nil {
			return nil, nil, err
		}
		return lc, lc.TrueLabel, nil
	case "hard":
		// Anisotropic, imbalanced mixture with 8% uniform outliers.
		h, err := dataset.NewHardMixture("hard", n, d, components, 0.15, 2.0, 3, 0.08, 0.7, seed)
		if err != nil {
			return nil, nil, err
		}
		return h, h.TrueLabel, nil
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q", name)
	}
}

func run(o options) error {
	src, labeler, err := buildSource(o.dsName, o.scale, o.n, o.d, o.components, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "dataset : %s  n=%d d=%d\n", o.dsName, src.N(), src.D())

	if o.obsRequested() {
		// checkModeFlags refused these flags outside the simulated
		// machine's training modes.
		if o.rollup {
			o.rec = obs.NewRollupRecorder()
		} else {
			o.rec = obs.NewRecorder()
		}
	}
	if o.loadPath != "" {
		return runInference(o, src, labeler)
	}
	switch o.algo {
	case "sim":
	case "fine1", "fine2", "fine3":
		return runFineGrained(o, src, labeler)
	default:
		return runHostBaseline(o, src, labeler)
	}

	spec, err := o.buildSpec()
	if err != nil {
		return err
	}
	stats := trace.NewStats()
	cfg := core.Config{
		Spec:         spec,
		Level:        core.Level(o.level),
		K:            o.k,
		MaxIters:     o.iters,
		Seed:         o.seed,
		SampleStride: o.stride,
		MGroup:       o.mgroup,
		MPrimeGroup:  o.mprime,
		Sched:        o.sched,
		Stats:        stats,
	}
	if o.useKpp {
		cfg.Init = core.InitKMeansPlusPlus
	}
	cfg.Faults = o.faults
	cfg.CheckpointInterval = o.ckpt
	cfg.DropLostShards = o.dropLost
	cfg.Obs = o.rec
	fmt.Fprintf(o.out, "machine : %v\n", spec)
	if !o.faults.Empty() {
		fmt.Fprintf(o.out, "faults  : %d crashes, dma=%g msg=%g, %d links, %d stragglers (seed=%d)\n",
			len(o.faults.Crashes), o.faults.DMAFailRate, o.faults.MsgFailRate,
			len(o.faults.Links), len(o.faults.Stragglers), o.faults.Seed)
	}

	res, err := core.Run(cfg, src)
	if err != nil {
		return fmt.Errorf("training run: %w", err)
	}
	fmt.Fprintf(o.out, "plan    : %v\n", res.Plan)
	fmt.Fprintf(o.out, "iters   : %d (converged=%v)\n", res.Iters, res.Converged)
	fmt.Fprintf(o.out, "traffic : %v\n", res.Traffic)
	if err := printRecovery(o.out, res); err != nil {
		return err
	}

	tb := report.NewTable("\nsimulated one-iteration completion time", "iteration", "seconds")
	for i, it := range res.IterTimes {
		tb.AddRow(i+1, it)
	}
	tb.AddStringRow("mean", fmt.Sprintf("%.6f", res.MeanIterTime()))
	if err := tb.Render(o.out); err != nil {
		return err
	}

	if labeler != nil && o.stride == 1 {
		if err := printQuality(o.out, src, res.Centroids, res.D, res.Assign, labeler); err != nil {
			return err
		}
		if res.Recovery != nil && res.Recovery.DroppedSamples > 0 {
			if err := printQualityDelta(o, cfg, src, res, labeler); err != nil {
				return err
			}
		}
	}
	if o.savePath != "" {
		if err := saveModel(o.savePath, res.Centroids, res.K, res.D); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "model   : saved to %s\n", o.savePath)
	}
	if err := exportObs(o); err != nil {
		return err
	}
	if o.summary {
		return res.WriteSummary(o.out)
	}
	return nil
}

// exportObs renders and writes whatever observability output the run
// asked for: the ASCII timeline to the report stream, the Chrome
// trace-event JSON and the JSONL metrics log to their files. All three
// are deterministic functions of the recorder, so identical seeded
// runs produce byte-identical files.
func exportObs(o options) error {
	if o.rec == nil {
		return nil
	}
	if o.timeline {
		if err := report.RenderTimeline(o.out, "\nper-rank virtual-time timeline", obs.Lanes(o.rec), 72); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		write := obs.WriteTraceEvents
		note := "full"
		if o.traceAgg > 0 {
			topK := o.traceAgg
			write = func(w io.Writer, rec *obs.Recorder) error {
				return obs.WriteAggregateTrace(w, rec, topK)
			}
			note = fmt.Sprintf("aggregate, top %d stragglers", topK)
		}
		if err := writeObsFile(o.traceOut, o.rec, write); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "trace   : %s (%s; load in Perfetto or chrome://tracing)\n", o.traceOut, note)
	}
	if o.metricsOut != "" {
		if err := writeObsFile(o.metricsOut, o.rec, obs.WriteMetricsJSONL); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "metrics : %s\n", o.metricsOut)
	}
	if o.profileOut != "" {
		if err := writeObsFile(o.profileOut, o.rec, obs.WriteProfileJSON); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "profile : %s\n", o.profileOut)
	}
	if o.foldedOut != "" {
		p := obs.BuildProfile(o.rec)
		if err := writeObsFile(o.foldedOut, o.rec, func(w io.Writer, _ *obs.Recorder) error {
			return obs.WriteFolded(w, p)
		}); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "folded  : %s (render with a flamegraph tool)\n", o.foldedOut)
	}
	return nil
}

// writeObsFile streams one recorder export into path.
func writeObsFile(path string, rec *obs.Recorder, write func(io.Writer, *obs.Recorder) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecovery reports the fault-recovery work of a resilient run in
// virtual seconds — the quantity that makes checkpoint-interval sweeps
// comparable to fault-free completion time.
func printRecovery(w io.Writer, res *core.Result) error {
	rec := res.Recovery
	if rec == nil {
		return nil
	}
	fmt.Fprintf(w, "recovery: replans=%d lost=%v dropped=%d checkpoints=%d\n",
		rec.Replans, rec.LostRanks, rec.DroppedSamples, rec.Checkpoints)
	useful := 0.0
	for _, t := range res.IterTimes {
		useful += t
	}
	overhead := rec.OverheadSeconds()
	pct := 0.0
	if useful+overhead > 0 {
		pct = 100 * overhead / (useful + overhead)
	}
	fmt.Fprintf(w, "overhead: ckpt=%.6fs restore=%.6fs replan=%.6fs redo=%.6fs retries=%.6fs total=%.6fs (%.1f%% of completion)\n",
		rec.CheckpointSeconds, rec.RestoreSeconds, rec.ReplanSeconds, rec.RedoSeconds, rec.RetrySeconds, overhead, pct)
	return nil
}

// printQualityDelta quantifies what dropping dead shards cost: the
// same configuration runs fault-free and the quality metrics are
// compared side by side.
func printQualityDelta(o options, cfg core.Config, src dataset.Source, res *core.Result, labeler func(int) int) error {
	cfg.Faults = fault.Plan{}
	cfg.DropLostShards = false
	cfg.Stats = nil // only the reference run's clustering is read
	ref, err := core.Run(cfg, src)
	if err != nil {
		return fmt.Errorf("fault-free reference run: %w", err)
	}
	refNMI, gotNMI, err := pairedNMI(src, ref.Assign, res.Assign, labeler)
	if err != nil {
		return err
	}
	refObj, err := quality.Objective(src, ref.Centroids, ref.D, ref.Assign)
	if err != nil {
		return err
	}
	gotObj, _, err := quality.ObjectiveSurviving(src, res.Centroids, res.D, res.Assign)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "delta   : NMI %.4f -> %.4f (%+.4f), objective %.6g -> %.6g (dropped %d of %d samples)\n",
		refNMI, gotNMI, gotNMI-refNMI, refObj, gotObj, res.Recovery.DroppedSamples, src.N())
	return nil
}

// pairedNMI computes NMI for the fault-free and the degraded
// assignment over the samples the degraded run still covers, so the
// two numbers are comparable.
func pairedNMI(src dataset.Source, refAssign, gotAssign []int, labeler func(int) int) (refNMI, gotNMI float64, err error) {
	var ref, got, truth []int
	for i := 0; i < src.N(); i++ {
		if gotAssign[i] < 0 {
			continue
		}
		ref = append(ref, refAssign[i])
		got = append(got, gotAssign[i])
		truth = append(truth, labeler(i))
	}
	if refNMI, err = quality.NMI(ref, truth); err != nil {
		return 0, 0, err
	}
	if gotNMI, err = quality.NMI(got, truth); err != nil {
		return 0, 0, err
	}
	return refNMI, gotNMI, nil
}

// runInference classifies the dataset with a previously trained
// centroid model: no training iterations, just the Assign step.
func runInference(o options, src dataset.Source, labeler func(int) int) error {
	cents, k, d, err := core.LoadCentroidsFile(o.loadPath)
	if err != nil {
		return err
	}
	if d != src.D() {
		return fmt.Errorf("model dimensionality %d does not match dataset d=%d", d, src.D())
	}
	fmt.Fprintf(o.out, "model   : %s (k=%d d=%d)\n", o.loadPath, k, d)
	assign := make([]int, src.N())
	buf := make([]float64, d)
	for i := 0; i < src.N(); i++ {
		src.Sample(i, buf)
		assign[i], _ = core.Nearest(buf, cents, d, -1)
	}
	if labeler != nil {
		return printQuality(o.out, src, cents, d, assign, labeler)
	}
	return nil
}

// runFineGrained executes the CPE-level reference kernels of
// internal/sw26010 (fine1/fine2/fine3 select the algorithm).
func runFineGrained(o options, src dataset.Source, labeler func(int) int) error {
	spec, err := o.buildSpec()
	if err != nil {
		return err
	}
	init, err := core.InitialCentroids(src, o.k, o.seed)
	if err != nil {
		return err
	}
	if o.useKpp {
		init, err = core.KMeansPlusPlus(src, o.k, o.seed)
		if err != nil {
			return err
		}
	}
	var res *sw26010.Result
	switch o.algo {
	case "fine1":
		res, err = sw26010.RunLevel1CG(spec, src, init, o.iters, 0, sw26010.WithObserver(o.rec))
	case "fine2":
		mg := o.mgroup
		if mg == 0 {
			mg = 8
		}
		res, err = sw26010.RunLevel2CG(spec, src, init, mg, o.iters, 0, sw26010.WithObserver(o.rec))
	default:
		mp := o.mprime
		if mp == 0 {
			mp = 1
		}
		res, err = sw26010.RunLevel3Group(spec, src, init, mp, 64, o.iters, 0, sw26010.WithObserver(o.rec))
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "algo    : %s (CPE-granularity reference)\n", o.algo)
	fmt.Fprintf(o.out, "iters   : %d (converged=%v), %.6f sim s/iter\n",
		res.Iters, res.Converged, meanOf(res.IterTimes))
	if labeler != nil {
		if err := printQuality(o.out, src, res.Centroids, src.D(), res.Assign, labeler); err != nil {
			return err
		}
	}
	return exportObs(o)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runHostBaseline executes a sequential host algorithm (the paper's
// single-node comparator family) instead of the simulated machine.
func runHostBaseline(o options, src dataset.Source, labeler func(int) int) error {
	init, err := core.InitialCentroids(src, o.k, o.seed)
	if err != nil {
		return err
	}
	if o.useKpp {
		init, err = core.KMeansPlusPlus(src, o.k, o.seed)
		if err != nil {
			return err
		}
	}
	var cents []float64
	var assign []int
	var iters int
	var distances int64
	switch o.algo {
	case "lloyd":
		res, err := core.LloydFrom(src, init, o.iters, 0)
		if err != nil {
			return err
		}
		cents, assign, iters = res.Centroids, res.Assign, res.Iters
		distances = int64(src.N()) * int64(o.k) * int64(res.Iters)
	case "hamerly":
		res, err := accel.Hamerly(src, init, o.iters, 0)
		if err != nil {
			return err
		}
		cents, assign, iters, distances = res.Centroids, res.Assign, res.Counters.Iters, res.Counters.Distances
	case "elkan":
		res, err := accel.Elkan(src, init, o.iters, 0)
		if err != nil {
			return err
		}
		cents, assign, iters, distances = res.Centroids, res.Assign, res.Counters.Iters, res.Counters.Distances
	case "minibatch":
		res, err := accel.MiniBatch(src, init, o.iters, 256, o.seed)
		if err != nil {
			return err
		}
		cents, assign, iters, distances = res.Centroids, res.Assign, res.Counters.Iters, res.Counters.Distances
	default:
		return fmt.Errorf("unknown algorithm %q", o.algo)
	}
	fmt.Fprintf(o.out, "algo    : %s (host baseline)\n", o.algo)
	fmt.Fprintf(o.out, "iters   : %d, %d distance computations\n", iters, distances)
	if labeler != nil {
		if err := printQuality(o.out, src, cents, src.D(), assign, labeler); err != nil {
			return err
		}
	}
	if o.savePath != "" {
		if err := saveModel(o.savePath, cents, o.k, src.D()); err != nil {
			return err
		}
		fmt.Fprintf(o.out, "model   : saved to %s\n", o.savePath)
	}
	return nil
}

func printQuality(w io.Writer, src dataset.Source, cents []float64, d int, assign []int, labeler func(int) int) error {
	// Samples without an assignment (dropped shards) stay out of the
	// scoring.
	var pred, truth []int
	for i := 0; i < src.N(); i++ {
		if assign[i] < 0 {
			continue
		}
		pred = append(pred, assign[i])
		truth = append(truth, labeler(i))
	}
	ari, err := quality.ARI(pred, truth)
	if err != nil {
		return err
	}
	nmi, err := quality.NMI(pred, truth)
	if err != nil {
		return err
	}
	obj, _, err := quality.ObjectiveSurviving(src, cents, d, assign)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nquality : ARI=%.4f NMI=%.4f objective=%.6g\n", ari, nmi, obj)
	return nil
}

func saveModel(path string, cents []float64, k, d int) error {
	// Crash-consistent: temp file + rename, with a checksum the loader
	// verifies, so an interrupted -save never leaves a torn model.
	return core.SaveCentroidsFile(path, cents, k, d)
}
