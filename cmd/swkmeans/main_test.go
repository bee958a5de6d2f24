package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

func base(out *strings.Builder) options {
	return options{
		out: out, dsName: "gauss", scale: 64, n: 400, d: 8, components: 4,
		level: 1, k: 4, nodes: 1, iters: 5, seed: 1, stride: 1, algo: "sim",
	}
}

func TestRunSimulated(t *testing.T) {
	var b strings.Builder
	if err := run(base(&b)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"plan    :", "quality :", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAutoLevelAndSummary(t *testing.T) {
	var b strings.Builder
	o := base(&b)
	o.level = 0
	o.summary = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"mean_iter_seconds"`) {
		t.Error("summary JSON missing")
	}
}

func TestRunSaveModel(t *testing.T) {
	var b strings.Builder
	o := base(&b)
	o.savePath = filepath.Join(t.TempDir(), "model.swkm")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(o.savePath)
	if err != nil {
		t.Fatal(err)
	}
	// v2 model files: 16-byte header + k*d float64 payload + 4-byte CRC.
	if info.Size() != 16+4*8*8+4 {
		t.Errorf("model file size %d", info.Size())
	}
}

func TestRunHostBaselines(t *testing.T) {
	for _, algo := range []string{"lloyd", "hamerly", "elkan", "minibatch"} {
		var b strings.Builder
		o := base(&b)
		o.algo = algo
		o.useKpp = true
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(b.String(), algo+" (host baseline)") {
			t.Errorf("%s output wrong:\n%s", algo, b.String())
		}
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	var b strings.Builder
	o := base(&b)
	o.algo = "magic"
	if err := run(o); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestBuildSourceVariants(t *testing.T) {
	for _, name := range []string{"gauss", "hard", "kegg", "road", "census", "imgnet", "landcover"} {
		src, labeler, err := buildSource(name, 256, 100, 8, 4, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if src.N() < 1 || src.D() < 1 {
			t.Errorf("%s: shape %dx%d", name, src.N(), src.D())
		}
		if labeler == nil {
			t.Errorf("%s: no labeler", name)
		}
	}
	if _, _, err := buildSource("nope", 1, 1, 1, 1, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunInference(t *testing.T) {
	var b strings.Builder
	o := base(&b)
	o.savePath = filepath.Join(t.TempDir(), "model.swkm")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Reload and classify.
	var b2 strings.Builder
	o2 := base(&b2)
	o2.loadPath = o.savePath
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "model   :") || !strings.Contains(b2.String(), "quality :") {
		t.Errorf("inference output wrong:\n%s", b2.String())
	}
	// Dimension mismatch rejected.
	o3 := base(&strings.Builder{})
	o3.loadPath = o.savePath
	o3.d = 16
	if err := run(o3); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Missing file.
	o4 := base(&strings.Builder{})
	o4.loadPath = filepath.Join(t.TempDir(), "missing.swkm")
	if err := run(o4); err == nil {
		t.Error("missing model accepted")
	}
}

func TestRunFineGrainedKernels(t *testing.T) {
	for _, algo := range []string{"fine1", "fine2", "fine3"} {
		var b strings.Builder
		o := base(&b)
		o.algo = algo
		o.n = 256
		o.iters = 3
		if algo == "fine3" {
			o.mprime = 2
		}
		if err := run(o); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(b.String(), "CPE-granularity reference") {
			t.Errorf("%s output wrong:\n%s", algo, b.String())
		}
	}
}

func TestRunStrideSkipsQuality(t *testing.T) {
	var b strings.Builder
	o := base(&b)
	o.stride = 4
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "quality :") {
		t.Error("quality printed in stride mode")
	}
}

func TestBuildSpecPrecedence(t *testing.T) {
	// Preset overrides nodes.
	o := options{nodes: 7, preset: "processor"}
	s, err := o.buildSpec()
	if err != nil || s.Nodes != 1 {
		t.Errorf("preset spec = %v (%v)", s, err)
	}
	// JSON file overrides both.
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{"nodes":3,"ldm_bytes_per_cpe":65536,"dram_bytes_per_cg":8589934592,
		"bandwidths":{"DMA":32e9,"RegComm":46.4e9,"Network":16e9,"IntraSupernodeFactor":1,
		"InterSupernodeFactor":0.6,"NetworkLatency":1.5e-6,"DMALatency":1e-6,"RegLatency":1e-8},
		"compute":{"FlopsPerCPE":4e9}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o = options{nodes: 7, preset: "processor", specPath: path}
	s, err = o.buildSpec()
	if err != nil || s.Nodes != 3 {
		t.Errorf("file spec = %v (%v)", s, err)
	}
	// Bad preset fails.
	o = options{preset: "nope"}
	if _, err := o.buildSpec(); err == nil {
		t.Error("bad preset accepted")
	}
	// Missing file fails.
	o = options{specPath: filepath.Join(t.TempDir(), "missing.json")}
	if _, err := o.buildSpec(); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestRunObservabilityExports(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	o := base(&b)
	o.traceOut = filepath.Join(dir, "trace.json")
	o.metricsOut = filepath.Join(dir, "metrics.jsonl")
	o.timeline = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"per-rank virtual-time timeline", "trace   :", "metrics :", "C compute"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	trace1, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(trace1), `{"traceEvents":[`) {
		t.Errorf("trace file does not open a traceEvents array: %.40s", trace1)
	}
	metrics1, err := os.ReadFile(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics1), `"type":"rank_iter"`) {
		t.Error("metrics file has no rank_iter lines")
	}

	// Identical flags and seed reproduce both exports byte for byte.
	var b2 strings.Builder
	o2 := base(&b2)
	o2.traceOut = filepath.Join(dir, "trace2.json")
	o2.metricsOut = filepath.Join(dir, "metrics2.jsonl")
	o2.timeline = true
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	trace2, err := os.ReadFile(o2.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(trace1) != string(trace2) {
		t.Error("identical runs produced different trace exports")
	}
	metrics2, err := os.ReadFile(o2.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(metrics1) != string(metrics2) {
		t.Error("identical runs produced different metrics exports")
	}
}

func TestRunObservabilityFineGrained(t *testing.T) {
	var b strings.Builder
	o := base(&b)
	o.algo = "fine2"
	o.mgroup = 8
	o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"cpe/63"`) {
		t.Error("fine-grained trace missing CPE tracks")
	}
}

// TestRunObservabilityRejectsHostAlgos: only the simulated machine is
// traced, so every observability flag under a host baseline or -load
// is refused before the run, naming the flag.
func TestRunObservabilityRejectsHostAlgos(t *testing.T) {
	flags := []struct {
		name string
		set  func(*options)
	}{
		{"-trace-out", func(o *options) { o.traceOut = "t.json" }},
		{"-metrics-out", func(o *options) { o.metricsOut = "m.jsonl" }},
		{"-timeline", func(o *options) { o.timeline = true }},
		{"-profile-out", func(o *options) { o.profileOut = "p.json" }},
		{"-folded-out", func(o *options) { o.foldedOut = "f.txt" }},
		{"-rollup", func(o *options) { o.rollup = true }},
	}
	modes := []func(*options){
		func(o *options) { o.algo = "lloyd" },
		func(o *options) { o.algo = "hamerly" },
		func(o *options) { o.algo = "elkan" },
		func(o *options) { o.algo = "minibatch" },
		func(o *options) { o.loadPath = "m.swkm" },
	}
	for _, mode := range modes {
		for _, f := range flags {
			o := base(&strings.Builder{})
			mode(&o)
			f.set(&o)
			if err := checkModeFlags(o); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("-algo %s -load %q %s: error %v, want one naming %s", o.algo, o.loadPath, f.name, err, f.name)
			}
		}
	}
}

func TestRunRollupProfileExports(t *testing.T) {
	dir := t.TempDir()
	render := func(sub string) (profile, folded, trace string) {
		var b strings.Builder
		o := base(&b)
		o.rollup = true
		o.sched = true
		o.profileOut = filepath.Join(dir, sub+"-p.json")
		o.foldedOut = filepath.Join(dir, sub+"-f.txt")
		o.traceOut = filepath.Join(dir, sub+"-t.json")
		o.traceAgg = 4 // main() implies this under -rollup; set explicitly here
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{"profile :", "folded  :", "aggregate, top 4 stragglers"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
		read := func(p string) string {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
		return read(o.profileOut), read(o.foldedOut), read(o.traceOut)
	}
	p1, f1, tr1 := render("a")
	if !strings.Contains(p1, `"schema": "swkm-profile/1"`) {
		t.Errorf("profile lacks its schema marker: %.80s", p1)
	}
	if !strings.Contains(p1, `"sched:dispatches"`) {
		t.Error("sched-driver profile lacks the scheduler counters")
	}
	if !strings.Contains(f1, "rank;iter:") {
		t.Errorf("folded stacks look wrong: %.80s", f1)
	}
	if !strings.Contains(tr1, `agg:rank`) {
		t.Errorf("aggregate trace lacks class lanes: %.120s", tr1)
	}
	// Byte determinism across identical seeded runs.
	p2, f2, tr2 := render("b")
	if p1 != p2 || f1 != f2 || tr1 != tr2 {
		t.Error("identical rollup runs produced different exports")
	}
}

func TestRunProfileWithoutRollup(t *testing.T) {
	// -profile-out works from a span-retaining run too, and produces
	// the same bytes as a rollup run of the same seed.
	dir := t.TempDir()
	render := func(rollup bool, sub string) string {
		var b strings.Builder
		o := base(&b)
		o.rollup = rollup
		o.profileOut = filepath.Join(dir, sub+".json")
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(o.profileOut)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if span, roll := render(false, "span"), render(true, "roll"); span != roll {
		t.Error("profile bytes differ between recorder modes")
	}
}

// TestCheckModeFlags: a flag that the chosen mode would drop is refused
// by name, and the flags each mode uses pass.
func TestCheckModeFlags(t *testing.T) {
	crash := fault.Plan{Seed: 7, Crashes: []fault.Crash{{CG: 0, At: 1e-9}}}
	for _, c := range []struct {
		name string
		set  func(*options)
		flag string // "" when the flags must pass
	}{
		{"fine1 faults", func(o *options) { o.algo, o.faults = "fine1", fault.Plan{Seed: 7} }, "-faults"},
		{"fine2 ckpt", func(o *options) { o.algo, o.ckpt = "fine2", 2 }, "-ckpt"},
		{"fine3 droplost", func(o *options) { o.algo, o.dropLost = "fine3", true }, "-droplost"},
		{"fine1 stride", func(o *options) { o.algo, o.stride = "fine1", 4 }, "-stride"},
		{"fine1 sched", func(o *options) { o.algo, o.sched = "fine1", true }, "-sched"},
		{"fine3 summary", func(o *options) { o.algo, o.summary = "fine3", true }, "-summary"},
		{"fine1 save", func(o *options) { o.algo, o.savePath = "fine1", "m.bin" }, "-save"},
		{"lloyd faults", func(o *options) { o.algo, o.faults = "lloyd", fault.Plan{Crashes: []fault.Crash{{CG: 0, At: 1e-9}}} }, "-faults"},
		{"hamerly stride", func(o *options) { o.algo, o.stride = "hamerly", 4 }, "-stride"},
		{"elkan summary", func(o *options) { o.algo, o.summary = "elkan", true }, "-summary"},
		{"minibatch sched", func(o *options) { o.algo, o.sched = "minibatch", true }, "-sched"},
		{"fine1 mgroup", func(o *options) { o.algo, o.mgroup = "fine1", 8 }, "-mgroup"},
		{"fine2 mprime", func(o *options) { o.algo, o.mprime = "fine2", 2 }, "-mprime"},
		{"fine3 mgroup", func(o *options) { o.algo, o.mgroup = "fine3", 8 }, "-mgroup"},
		{"lloyd mprime", func(o *options) { o.algo, o.mprime = "lloyd", 2 }, "-mprime"},
		{"level 1 mgroup", func(o *options) { o.mgroup = 8 }, "-mgroup"},
		{"level 2 mprime", func(o *options) { o.level, o.mprime = 2, 2 }, "-mprime"},
		{"level 3 mgroup", func(o *options) { o.level, o.mgroup = 3, 8 }, "-mgroup"},
		{"load faults", func(o *options) { o.loadPath, o.faults = "m.swkm", crash }, "-faults"},
		{"load ckpt", func(o *options) { o.loadPath, o.ckpt = "m.swkm", 3 }, "-ckpt"},
		{"load droplost", func(o *options) { o.loadPath, o.dropLost = "m.swkm", true }, "-droplost"},
		{"load summary", func(o *options) { o.loadPath, o.summary = "m.swkm", true }, "-summary"},
		{"load stride", func(o *options) { o.loadPath, o.stride = "m.swkm", 4 }, "-stride"},
		{"load sched", func(o *options) { o.loadPath, o.sched = "m.swkm", true }, "-sched"},
		{"load save", func(o *options) { o.loadPath, o.savePath = "m.swkm", "m.bin" }, "-save"},
		{"load kmeanspp", func(o *options) { o.loadPath, o.useKpp = "m.swkm", true }, "-kmeanspp"},
		{"load algo", func(o *options) { o.loadPath, o.algo = "m.swkm", "fine3" }, "-algo"},
		{"load mprime", func(o *options) { o.loadPath, o.level, o.mprime = "m.swkm", 3, 2 }, "-mprime"},
		{"load mgroup", func(o *options) { o.loadPath, o.level, o.mgroup = "m.swkm", 2, 8 }, "-mgroup"},
		{"ckpt without faults", func(o *options) { o.ckpt = 3 }, "-ckpt"},
		{"droplost without faults", func(o *options) { o.dropLost = true }, "-droplost"},
		{"ckpt under a seed-only plan", func(o *options) { o.faults, o.ckpt = fault.Plan{Seed: 7}, 3 }, "-ckpt"},
		{"lloyd rollup trace-agg", func(o *options) { o.algo, o.rollup, o.traceAgg = "lloyd", true, 4 }, "-rollup"},
		{"load metrics-out", func(o *options) { o.loadPath, o.metricsOut = "m.swkm", "m.jsonl" }, "-metrics-out"},
		{"trace-agg without trace-out", func(o *options) { o.traceAgg = 4 }, "-trace-agg"},
		{"fine3 trace-agg without trace-out", func(o *options) { o.algo, o.traceAgg = "fine3", 2 }, "-trace-agg"},
		{"sim observability", func(o *options) {
			o.rollup, o.traceOut, o.traceAgg, o.metricsOut = true, "t.json", 4, "m.jsonl"
			o.profileOut, o.foldedOut = "p.json", "f.txt"
		}, ""},
		{"sim rollup alone", func(o *options) { o.rollup = true }, ""},
		{"fine2 timeline", func(o *options) { o.algo, o.timeline = "fine2", true }, ""},
		{"sim everything", func(o *options) {
			o.level, o.mgroup, o.mprime, o.faults, o.ckpt, o.dropLost = 0, 8, 2, crash, 2, true
			o.stride, o.sched, o.summary, o.savePath = 4, true, true, "m.bin"
		}, ""},
		{"load alone", func(o *options) { o.loadPath = "m.swkm" }, ""},
		{"fine2 mgroup", func(o *options) { o.algo, o.mgroup = "fine2", 8 }, ""},
		{"fine3 mprime", func(o *options) { o.algo, o.mprime = "fine3", 2 }, ""},
		{"lloyd save", func(o *options) { o.algo, o.savePath = "lloyd", "m.bin" }, ""},
	} {
		o := base(&strings.Builder{})
		c.set(&o)
		err := checkModeFlags(o)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.flag != "" && (err == nil || !strings.Contains(err.Error(), c.flag)):
			t.Errorf("%s: error %v, want one naming %s", c.name, err, c.flag)
		}
	}
}

// TestCheckFaultUnits: a -faults plan naming a CG outside the machine
// the flags build is refused before the run starts; one inside it, and
// a spec that does not build (run's error to report), pass.
func TestCheckFaultUnits(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*options)
		want string // "" when the plan must pass
	}{
		{"crash outside one node", func(o *options) {
			o.faults = fault.Plan{Crashes: []fault.Crash{{CG: 77, At: 1e-5}}}
		}, "names CG 77, but the machine has CGs [0,4)"},
		{"straggler one past the end", func(o *options) {
			o.faults = fault.Plan{Stragglers: []fault.Straggler{{CG: 8, CPE: -1, Factor: 2}}}
			o.nodes = 2
		}, "names CG 8, but the machine has CGs [0,8)"},
		{"crash inside two nodes", func(o *options) {
			o.faults = fault.Plan{Crashes: []fault.Crash{{CG: 7, At: 1e-5}}}
			o.nodes = 2
		}, ""},
		{"preset machine", func(o *options) {
			o.faults = fault.Plan{Crashes: []fault.Crash{{CG: 77, At: 1e-5}}}
			o.preset = "processor"
		}, "names CG 77, but the machine has CGs [0,4)"},
		{"no plan", func(o *options) {}, ""},
		{"spec that does not build", func(o *options) {
			o.faults = fault.Plan{Crashes: []fault.Crash{{CG: 77, At: 1e-5}}}
			o.preset = "nope"
		}, ""},
	} {
		o := base(&strings.Builder{})
		c.set(&o)
		err := checkFaultUnits(o)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}
