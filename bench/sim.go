package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dma"
	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/regcomm"
	"repro/internal/sched"
	"repro/internal/sw26010"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// The virtual seconds of the first iteration of each simulated
// workload at full shape. Virtual time is the paper's metric and
// depends on the shape only, never on the seed or the host, so a
// change that moves it changes the model and fails the run until these
// are re-pinned.
const (
	l1FirstIterVsec  = 0.00020053676847290645
	desFirstIterVsec = 0.024411767919540261
	cpeFirstIterVsec = 0.0044328034679804928
)

// kernelShape is a Gaussian-mixture clustering problem.
type kernelShape struct {
	n, d, k, components int
	spread              float64
	iters               int
}

// materialize generates the shape's samples from the seed and the
// initial centroids the runs start from.
func (s kernelShape) materialize(seed uint64) (*dataset.Matrix, []float64, error) {
	g, err := dataset.NewGaussianMixture("bench", s.n, s.d, s.components, s.spread, 2.0, seed)
	if err != nil {
		return nil, nil, err
	}
	m, err := dataset.Materialize(g)
	if err != nil {
		return nil, nil, err
	}
	init, err := core.InitialCentroids(m, s.k, seed)
	return m, init, err
}

// agree checks a run against the sequential Lloyd reference the way
// the engine tests do: identical assignments and centroids within
// 1e-9 relative.
func agree(iters int, assign []int, cents []float64, ref *core.Result) error {
	if iters != ref.Iters {
		return fmt.Errorf("ran %d iterations, Lloyd %d", iters, ref.Iters)
	}
	for i := range ref.Assign {
		if assign[i] != ref.Assign[i] {
			return fmt.Errorf("sample %d assigned %d, Lloyd %d", i, assign[i], ref.Assign[i])
		}
	}
	for i := range ref.Centroids {
		diff := math.Abs(cents[i] - ref.Centroids[i])
		if diff/math.Max(1, math.Abs(ref.Centroids[i])) > 1e-9 {
			return fmt.Errorf("centroid element %d = %g, Lloyd %g", i, cents[i], ref.Centroids[i])
		}
	}
	return nil
}

// vsecCheck requires a run's per-iteration virtual times to be
// bit-identical to the first run's of the process and, at full shape,
// its first iteration to take the pinned time.
func vsecCheck(got, first []float64, pinned float64, small bool) error {
	if err := sameBits("iteration times", got, first); err != nil {
		return err
	}
	if !small && math.Float64bits(got[0]) != math.Float64bits(pinned) {
		return fmt.Errorf("first iteration took %.17g virtual s, pinned %.17g", got[0], pinned)
	}
	return nil
}

// sameBits requires two float sequences to be bit-identical.
func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d values, first run %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s[%d]: %.17g, first run %.17g", what, i, a[i], b[i])
		}
	}
	return nil
}

// loop runs op back to back for about d (at least once) and returns
// the measurement of the calls: each call's active time (see
// hostClock.activeSince) in milliseconds, and its wall time.
func loop(d time.Duration, op func() error) (measurement, error) {
	var active, wall []float64
	for start := time.Now(); len(active) == 0 || time.Since(start) < d; {
		c := readHostClock()
		if err := op(); err != nil {
			return measurement{}, err
		}
		a, w := c.activeSince()
		active, wall = append(active, ms(a)), append(wall, ms(w))
	}
	m := backToBack(active)
	m.wall = wall
	return m, nil
}

// l1Kernel is core.Run at Level 1 on a materialized matrix with the
// default driver and no observer: the nearest-centroid kernel does
// most of the work and MPI little.
type l1Kernel struct {
	shape kernelShape
	nodes int
	small bool

	src  *dataset.Matrix
	init []float64

	ref     *core.Result // sequential Lloyd from the same start
	refSecs float64
	first   []float64 // iteration times of the first run
	last    *core.Result
}

func newL1Kernel(small bool) workload {
	w := &l1Kernel{shape: kernelShape{n: 65536, d: 32, k: 64, components: 64, spread: 0.25, iters: 10}, nodes: 4, small: small}
	if small {
		w.shape = kernelShape{n: 2048, d: 8, k: 8, components: 8, spread: 0.25, iters: 5}
		w.nodes = 1
	}
	return w
}

func (w *l1Kernel) config() core.Config {
	return core.Config{
		Spec: machine.MustSpec(w.nodes), Level: core.Level1, K: w.shape.k,
		MaxIters: w.shape.iters, Seed: 1, Initial: w.init,
	}
}

func (w *l1Kernel) setup(r *run) (time.Duration, error) {
	t0 := time.Now()
	var err error
	w.src, w.init, err = w.shape.materialize(r.seed)
	return time.Since(t0), err
}

func (w *l1Kernel) close() { w.src, w.init = nil, nil }

func (w *l1Kernel) measure(r *run, d time.Duration) (measurement, error) {
	cfg := w.config()
	if w.ref == nil {
		// Untimed: the reference answer and one warm-up run.
		t0 := time.Now()
		ref, err := core.LloydFrom(w.src, w.init, w.shape.iters, 0)
		if err != nil {
			return measurement{}, err
		}
		w.ref, w.refSecs = ref, time.Since(t0).Seconds()
		res, err := core.Run(cfg, w.src)
		if err != nil {
			return measurement{}, err
		}
		w.first = res.IterTimes
	}
	return loop(d, func() error {
		id := r.span("core.Run", 0)
		res, err := core.Run(cfg, w.src)
		r.tr.end(id)
		if err != nil {
			return err
		}
		w.last = res
		if r.op(agree(res.Iters, res.Assign, res.Centroids, w.ref)) {
			r.op(vsecCheck(res.IterTimes, w.first, l1FirstIterVsec, w.small))
		}
		return nil
	})
}

func (w *l1Kernel) layers(r *run) error {
	s := w.shape
	r.set("core.lloyd_ref_s", w.refSecs)
	r.set("core.gflops", 3*float64(s.n)*float64(s.k)*float64(s.d)*float64(w.ref.Iters)/
		(r.traced.latency()/1000)/1e9)
	phases(r, w.last)

	// The Update step's allreduce: k·d sums and k counts over the
	// workload's ranks.
	ranks := 4 * w.nodes
	world, err := mpi.NewWorld(machine.MustSpec(w.nodes), nil, ranks)
	if err != nil {
		return err
	}
	secs, err := r.timed("mpi.AllReduceSum", 200*time.Millisecond, 5, func() error {
		return world.Run(func(c *mpi.Comm) error {
			return c.AllReduceSum(make([]float64, s.k*s.d), make([]int64, s.k))
		})
	})
	if err != nil {
		return err
	}
	r.set("mpi.allreduce_us", secs*1e6)

	// Recorder and stats-sink overheads: runs alternate between the
	// sinks so drift in the host's speed hits all of them alike, and
	// each sink's fastest run counts, as for latency_ms.
	sinks := []struct {
		metric string
		with   func(*core.Config)
	}{
		{"none", func(*core.Config) {}},
		{"obs.span_overhead", func(c *core.Config) { c.Obs = obs.NewRecorder() }},
		{"obs.rollup_overhead", func(c *core.Config) { c.Obs = obs.NewRollupRecorder() }},
		{"trace.stats_overhead", func(c *core.Config) { c.Stats = trace.NewStats() }},
	}
	times := make([][]float64, len(sinks))
	for round := 0; round < 3; round++ {
		for i, sink := range sinks {
			cfg := w.config()
			sink.with(&cfg)
			id := r.span("core.Run sink="+sink.metric, 0)
			t0 := time.Now()
			res, err := core.Run(cfg, w.src)
			times[i] = append(times[i], time.Since(t0).Seconds())
			r.tr.end(id)
			if err != nil {
				return err
			}
			r.op(agree(res.Iters, res.Assign, res.Centroids, w.ref))
			if cfg.Stats != nil {
				traffic(r, res.Traffic)
			}
		}
	}
	for i, sink := range sinks[1:] {
		r.set(sink.metric, minOf(times[i+1])/minOf(times[0]))
	}
	return nil
}

// phases records a core result's virtual time per iteration and its
// split by cost category.
func phases(r *run, res *core.Result) {
	var p core.Phase
	for _, ph := range res.Phases {
		p.Read += ph.Read
		p.Compute += ph.Compute
		p.Reg += ph.Reg
		p.Other += ph.Other
	}
	n := float64(len(res.Phases))
	r.set("vsec_per_iter", res.MeanIterTime())
	r.set("vtime.compute_s", p.Compute/n)
	r.set("vtime.dma_s", p.Read/n)
	r.set("vtime.reg_s", p.Reg/n)
	r.set("vtime.other_s", p.Other/n)
}

// traffic records a run's simulated work and data movement.
func traffic(r *run, t trace.Snapshot) {
	r.set("trace.flops", float64(t.Flops))
	r.set("trace.dma_bytes", float64(t.DMABytes))
	r.set("trace.reg_bytes", float64(t.RegBytes))
	r.set("trace.net_bytes", float64(t.NetBytes))
	r.set("trace.net_msgs", float64(t.NetMessages))
}

// des4K is the Figure 6b shape on the discrete-event driver: Level 3
// over 4,096 ranks with a lazily generated ImgNet-shaped source, one
// iteration, a rollup recorder and a stats sink. The driver,
// collectives and recorder do most of the work and the kernel little.
type des4K struct {
	nodes, d, k, mPrime, stride, components int
	n                                       int
	small                                   bool

	src  dataset.Source
	init []float64

	first *core.Result
	ratio float64
	last  *core.Result
	rec   *obs.Recorder
}

func newDES4K(small bool) workload {
	w := &des4K{nodes: 1024, n: dataset.ImgNetN, d: 256, k: 2000, mPrime: 128, stride: 4096, components: 128}
	if small {
		w = &des4K{nodes: 16, n: 65536, d: 32, k: 64, mPrime: 8, stride: 64, components: 16, small: true}
	}
	return w
}

func (w *des4K) setup(r *run) (time.Duration, error) {
	t0 := time.Now()
	g, err := dataset.NewGaussianMixture("imgnet", w.n, w.d, w.components, 0.25, 2.0, r.seed)
	if err != nil {
		return 0, err
	}
	w.src = g
	w.init, err = core.InitialCentroids(g, w.k, r.seed)
	return time.Since(t0), err
}

func (w *des4K) close() { w.src, w.init = nil, nil }

func (w *des4K) config() core.Config {
	return core.Config{
		Spec: machine.MustSpec(w.nodes), Level: core.Level3, K: w.k,
		MPrimeGroup: w.mPrime, MaxIters: 1, Seed: 1, Initial: w.init,
		SampleStride: w.stride, Sched: true,
		Stats: trace.NewStats(), Obs: obs.NewRollupRecorder(),
	}
}

func (w *des4K) measure(r *run, d time.Duration) (measurement, error) {
	if w.first == nil {
		// Untimed warm-up; later runs must reproduce it bit for bit.
		res, err := core.Run(w.config(), w.src)
		if err != nil {
			return measurement{}, err
		}
		w.first = res
		pred, err := perfmodel.Predict(core.Level3, perfmodel.Scenario{
			Nodes: w.nodes, N: w.n, K: w.k, D: w.d, MPrime: w.mPrime,
		})
		if err != nil {
			return measurement{}, err
		}
		// De-calibrated to the simulator's scale, as schedcheck does.
		w.ratio = pred.Total / perfmodel.CalibrationFactor / res.MeanIterTime()
	}
	return loop(d, func() error {
		cfg := w.config()
		id := r.span("core.Run", 0)
		res, err := core.Run(cfg, w.src)
		r.tr.end(id)
		if err != nil {
			return err
		}
		w.last, w.rec = res, cfg.Obs
		r.op(sameRun(res, w.first))
		r.op(vsecCheck(res.IterTimes, w.first.IterTimes, desFirstIterVsec, w.small))
		r.opf(w.ratio >= 0.3 && w.ratio <= 3.5, "perfmodel/sim ratio %.3f outside [0.3, 3.5]", w.ratio)
		return nil
	})
}

// sameRun requires bit-identical iteration counts and centroids.
func sameRun(a, b *core.Result) error {
	if a.Iters != b.Iters {
		return fmt.Errorf("%d iterations, first run %d", a.Iters, b.Iters)
	}
	return sameBits("centroids", a.Centroids, b.Centroids)
}

func (w *des4K) layers(r *run) error {
	phases(r, w.last)
	traffic(r, w.last.Traffic)
	r.set("perfmodel.ratio", w.ratio)
	for _, c := range w.rec.Counters() {
		switch c.Name {
		case "sched:dispatches":
			r.set("sched.dispatches", float64(c.Value))
		case "sched:parks":
			r.set("sched.parks", float64(c.Value))
		case "sched:wakes":
			r.set("sched.wakes", float64(c.Value))
		case "sched:max_queue_depth":
			r.set("sched.max_queue", float64(c.Value))
		}
	}

	ranks := 4 * w.nodes
	world, err := desWorld(ranks)
	if err != nil {
		return err
	}
	// Level 3's two splits: CG groups of m' consecutive ranks, and the
	// communicators across groups at equal positions.
	secs, err := r.timed("mpi.Split", 0, 3, func() error {
		return world.Run(func(c *mpi.Comm) error {
			if _, err := c.Split(c.Rank()/w.mPrime, c.Rank()); err != nil {
				return err
			}
			_, err := c.Split(c.Rank()%w.mPrime, c.Rank())
			return err
		})
	})
	if err != nil {
		return err
	}
	r.set("mpi.split_ms", secs*1e3)
	secs, err = r.timed("mpi.Barrier", 0, 3, func() error {
		return world.Run(func(c *mpi.Comm) error { return c.Barrier() })
	})
	if err != nil {
		return err
	}
	r.set("mpi.barrier_ms", secs*1e3)
	group, err := desWorld(w.mPrime)
	if err != nil {
		return err
	}
	secs, err = r.timed("mpi.AllReduceMinPairs", 100*time.Millisecond, 5, func() error {
		return group.Run(func(c *mpi.Comm) error {
			vals := make([]float64, 256)
			idxs := make([]int64, 256)
			for j := range vals {
				vals[j] = float64((c.Rank()*31 + j) % 97)
				idxs[j] = int64(c.Rank())
			}
			return c.AllReduceMinPairs(vals, idxs)
		})
	})
	if err != nil {
		return err
	}
	r.set("mpi.minpairs_ms", secs*1e3)

	// Scheduler dispatch rate: a token passed around a ring of tasks.
	const laps = 8
	secs, err = r.timed("sched.Run", 0, 3, func() error {
		sim := sched.New()
		tasks := make([]*sched.Task, ranks)
		for u := range tasks {
			u := u
			tasks[u] = sim.Spawn(u, 0, func(t *sched.Task) {
				for lap := 0; lap < laps; lap++ {
					tasks[(u+1)%ranks].Wake(sim.Now())
					if lap < laps-1 {
						t.Park()
					}
				}
			})
		}
		return sim.Run()
	})
	if err != nil {
		return err
	}
	r.set("sched.events_per_s", float64(ranks*laps)/secs)

	// Recording cost per span in each recorder mode, one unit per rank.
	for _, mode := range []struct {
		metric string
		rec    *obs.Recorder
	}{
		{"obs.record_ns_span", obs.NewRecorder()},
		{"obs.record_ns_rollup", obs.NewRollupRecorder()},
	} {
		const spans = 16
		units := make([]*obs.Unit, ranks)
		for u := range units {
			units[u] = mode.rec.Unit(fmt.Sprintf("rank/%d", u))
		}
		t := 0.0
		secs, err := r.timed("obs.Unit.Record", 0, 3, func() error {
			for _, unit := range units {
				for s := 0; s < spans; s++ {
					unit.Record(obs.KindCompute, t+float64(s), t+float64(s+1), 64, 128)
				}
			}
			t += spans
			return nil
		})
		if err != nil {
			return err
		}
		r.set(mode.metric, secs*1e9/float64(ranks*spans))
	}
	return nil
}

// desWorld returns a world of size ranks on the discrete-event driver.
func desWorld(size int) (*mpi.World, error) {
	world, err := mpi.NewWorld(machine.MustSpec((size+3)/4), nil, size)
	if err != nil {
		return nil, err
	}
	world.SetDriver(mpi.DriverSched)
	return world, nil
}

// cpeMesh is the fine-grained Algorithm 3 kernel on one CG group: 64
// CPE goroutines on a register-communication mesh, real DMA and LDM
// accounting. It is the only workload that runs the CPE substrates.
type cpeMesh struct {
	shape  kernelShape
	mPrime int
	batch  int
	small  bool
	src    *dataset.Matrix
	init   []float64
	ref    *core.Result
	first  []float64
}

func newCPEMesh(small bool) workload {
	w := &cpeMesh{shape: kernelShape{n: 4096, d: 32, k: 64, components: 16, spread: 0.5, iters: 5}, mPrime: 1, batch: 64}
	if small {
		w = &cpeMesh{shape: kernelShape{n: 256, d: 16, k: 8, components: 4, spread: 0.5, iters: 4}, mPrime: 1, batch: 32, small: true}
	}
	return w
}

func (w *cpeMesh) setup(r *run) (time.Duration, error) {
	t0 := time.Now()
	var err error
	w.src, w.init, err = w.shape.materialize(r.seed)
	return time.Since(t0), err
}

func (w *cpeMesh) close() { w.src, w.init = nil, nil }

func (w *cpeMesh) run(opts ...sw26010.Option) (*sw26010.Result, error) {
	return sw26010.RunLevel3Group(machine.MustSpec(1), w.src, w.init, w.mPrime, w.batch, w.shape.iters, 0, opts...)
}

func (w *cpeMesh) measure(r *run, d time.Duration) (measurement, error) {
	if w.ref == nil {
		ref, err := core.LloydFrom(w.src, w.init, w.shape.iters, 0)
		if err != nil {
			return measurement{}, err
		}
		w.ref = ref
		res, err := w.run()
		if err != nil {
			return measurement{}, err
		}
		w.first = res.IterTimes
	}
	return loop(d, func() error {
		id := r.span("sw26010.RunLevel3Group", 0)
		res, err := w.run()
		r.tr.end(id)
		if err != nil {
			return err
		}
		if r.op(agree(res.Iters, res.Assign, res.Centroids, w.ref)) {
			r.op(vsecCheck(res.IterTimes, w.first, cpeFirstIterVsec, w.small))
		}
		return nil
	})
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (w *cpeMesh) layers(r *run) error {
	rec := obs.NewRollupRecorder()
	id := r.span("sw26010.RunLevel3Group observed", 0)
	res, err := w.run(sw26010.WithObserver(rec))
	r.tr.end(id)
	if err != nil {
		return err
	}
	r.op(agree(res.Iters, res.Assign, res.Centroids, w.ref))
	r.set("vsec_per_iter", meanOf(res.IterTimes))
	// The critical unit's phases per iteration, as obs attributes them
	// (the fine kernels do not label iterations, so whole-run totals).
	var crit obs.PhaseSeconds
	for _, u := range obs.UnitTotals(rec) {
		if u.Phases.Total() > crit.Total() {
			crit = u.Phases
		}
	}
	n := float64(res.Iters)
	r.set("vtime.compute_s", crit.Compute/n)
	r.set("vtime.dma_s", crit.DMA/n)
	r.set("vtime.reg_s", crit.Reg/n)
	r.set("vtime.other_s", (crit.MPI+crit.Recovery+crit.Other)/n)
	var t trace.Snapshot
	for _, e := range obs.BuildProfile(rec).Entries {
		t.Flops += e.Flops
		switch obs.PhaseClass(e.Kind) {
		case obs.PhaseDMA:
			t.DMABytes += e.Bytes
		case obs.PhaseReg:
			t.RegBytes += e.Bytes
		case obs.PhaseMPI:
			t.NetBytes += e.Bytes
		}
	}
	traffic(r, t)

	// The mesh allreduce of one CG's partial sums (k·d values, k
	// counts) and one DMA chunk from main memory into LDM.
	spec := machine.MustSpec(1)
	s := w.shape
	secs, err := r.timed("regcomm.AllReduce", 200*time.Millisecond, 5, func() error {
		var failed error
		regcomm.NewMesh(spec, nil).Run(func(c *regcomm.CPE) {
			if err := c.AllReduce(make([]float64, s.k*s.d), make([]int64, s.k)); err != nil && c.ID() == 0 {
				failed = err
			}
		})
		return failed
	})
	if err != nil {
		return err
	}
	r.set("regcomm.allreduce_us", secs*1e6)
	engine, err := dma.New(spec, nil)
	if err != nil {
		return err
	}
	chunk := max(1, ldm.Level1StreamChunk(spec, s.k, s.d)) * s.d
	src, dst := make([]float64, chunk), make([]float64, chunk)
	clock := vclock.New()
	secs, err = r.timed("dma.Get", 50*time.Millisecond, 100, func() error {
		return engine.Get(clock, dst, src)
	})
	if err != nil {
		return err
	}
	r.set("dma.get_us", secs*1e6)
	return nil
}
