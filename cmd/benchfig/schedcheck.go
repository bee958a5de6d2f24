package main

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/trace"
)

// The schedcheck gate is the CI contract of the DES driver: the
// full 4,096-rank Figure 6b shape (1,024 nodes, k=2,000, full ImgNet
// sample count) must actually execute in-process, twice to
// byte-identical traces; the analytic model must agree with the
// executed time within the perfmodel consistency tolerance; and a
// seeded crash+straggler fault plan must recover deterministically.
// The dimension and sample stride are tighter than the -functional
// sweep so the gate stays a smoke test, but the rank count is not
// reduced — hosting that world is the point.
const (
	scNodes  = 1024 // 4,096 ranks
	scD      = 256
	scStride = 4096
)

// scRatioLo and scRatioHi bound the gate's model/sim. This shape reads
// 1.148; the other executed points, the headline and Figures 6b and 7,
// read 1.006–1.11. The band is 1.148 with a margin of about 0.15 either
// side, [1.0, 1.3], so the model or the simulator moving by more than
// about 13% on this shape fails the gate. It was [0.3, 3.5],
// order-of-magnitude agreement, before those points executed.
const scRatioLo, scRatioHi = 1.0, 1.3

// schedRun captures everything one gate run must reproduce bit for
// bit: the clustering result plus the exported observability
// artifacts.
type schedRun struct {
	res     *core.Result
	trace   []byte
	metrics []byte
}

func schedRunOnce(src dataset.Source, cfg core.Config) (schedRun, error) {
	cfg.Stats = trace.NewStats()
	cfg.Obs = obs.NewRecorder()
	res, err := core.Run(cfg, src)
	if err != nil {
		return schedRun{}, err
	}
	var tr, mx bytes.Buffer
	if err := obs.WriteTraceEvents(&tr, cfg.Obs); err != nil {
		return schedRun{}, err
	}
	if err := obs.WriteMetricsJSONL(&mx, cfg.Obs); err != nil {
		return schedRun{}, err
	}
	return schedRun{res: res, trace: tr.Bytes(), metrics: mx.Bytes()}, nil
}

// assertSameRun requires two runs of the same configuration to be
// indistinguishable: exact iteration counts, bit-identical centroids,
// per-iteration virtual times and recovery reports, byte-identical
// trace and metrics exports.
func assertSameRun(what string, a, b schedRun) error {
	if a.res.Iters != b.res.Iters || a.res.Converged != b.res.Converged {
		return fmt.Errorf("%s: iters/converged differ across runs: %d/%v vs %d/%v",
			what, a.res.Iters, a.res.Converged, b.res.Iters, b.res.Converged)
	}
	if err := sameBits(what+" centroids", a.res.Centroids, b.res.Centroids); err != nil {
		return err
	}
	if err := sameBits(what+" iteration times", a.res.IterTimes, b.res.IterTimes); err != nil {
		return err
	}
	// %v prints every float64 in its shortest exact form, so equal text
	// is equal bits.
	if ra, rb := fmt.Sprintf("%+v", a.res.Recovery), fmt.Sprintf("%+v", b.res.Recovery); ra != rb {
		return fmt.Errorf("%s: recovery reports differ across runs: %s vs %s", what, ra, rb)
	}
	if !bytes.Equal(a.trace, b.trace) {
		return fmt.Errorf("%s: exported Chrome traces differ across runs", what)
	}
	if !bytes.Equal(a.metrics, b.metrics) {
		return fmt.Errorf("%s: exported metrics JSONL differs across runs", what)
	}
	return nil
}

func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s[%d]: %016x vs %016x", what, i,
				math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
	return nil
}

func runSchedCheck(out io.Writer) error {
	src, err := dataset.ImgNet(scD, 1)
	if err != nil {
		return err
	}
	base := core.Config{
		Spec: machine.MustSpec(scNodes), Level: core.Level3, K: f6bK,
		MPrimeGroup: f6bMPrime, MaxIters: 1, Seed: 1,
		SampleStride: scStride, Sched: true,
	}
	fmt.Fprintf(out, "schedcheck: clean %d-rank Figure 6b smoke (n=%d, k=%d, d=%d) under the DES driver, twice\n",
		4*scNodes, src.N(), f6bK, scD)
	a, err := schedRunOnce(src, base)
	if err != nil {
		return fmt.Errorf("clean run 1: %w", err)
	}
	b, err := schedRunOnce(src, base)
	if err != nil {
		return fmt.Errorf("clean run 2: %w", err)
	}
	if err := assertSameRun("clean", a, b); err != nil {
		return err
	}
	sim := a.res.MeanIterTime()
	fmt.Fprintf(out, "schedcheck: deterministic (sim %.6f s/iter, trace %d bytes)\n", sim, len(a.trace))

	pred, err := perfmodel.Predict(core.Level3, perfmodel.Scenario{
		Nodes: scNodes, N: src.N(), K: f6bK, D: scD, MPrime: f6bMPrime,
	})
	if err != nil {
		return fmt.Errorf("perfmodel: %w", err)
	}
	// De-calibrate the model to the simulator's theoretical-bandwidth
	// scale, as the perfmodel consistency suite does, and hold the
	// ratio to the band this shape supports.
	model := pred.Total / perfmodel.CalibrationFactor
	ratio := model / sim
	if ratio < scRatioLo || ratio > scRatioHi {
		return fmt.Errorf("perfmodel disagrees with the DES run: model %.6f s/iter, sim %.6f s/iter, ratio %.2f outside [%.2f, %.2f]",
			model, sim, ratio, scRatioLo, scRatioHi)
	}
	fmt.Fprintf(out, "schedcheck: perfmodel agreement model/sim = %.2f (tolerance %.2f..%.2f)\n", ratio, scRatioLo, scRatioHi)

	fcfg := base
	fcfg.MaxIters = 2
	fcfg.CheckpointInterval = 1
	fcfg.Faults = fault.Plan{
		Seed:       7,
		Crashes:    []fault.Crash{{CG: 2049, At: 2e-5}},
		Stragglers: []fault.Straggler{{CG: 4095, CPE: -1, Factor: 1.75}},
	}
	fmt.Fprintln(out, "schedcheck: crash+straggler fault plan (crash CG 2049, straggler CG 4095 x1.75), twice")
	fa, err := schedRunOnce(src, fcfg)
	if err != nil {
		return fmt.Errorf("fault run 1: %w", err)
	}
	fb, err := schedRunOnce(src, fcfg)
	if err != nil {
		return fmt.Errorf("fault run 2: %w", err)
	}
	if err := assertSameRun("fault", fa, fb); err != nil {
		return err
	}
	fmt.Fprintf(out, "schedcheck: fault plan deterministic (%d iters, sim %.6f s/iter)\n",
		fa.res.Iters, fa.res.MeanIterTime())
	fmt.Fprintln(out, "schedcheck: PASS")
	return nil
}
