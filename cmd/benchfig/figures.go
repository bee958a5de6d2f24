package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/perfmodel"
	"repro/internal/report"
)

func tableOne(c *ctx) error {
	t := report.NewTable("Table I — Parallel k-means implementations (capability)",
		"Approach", "Hardware", "Model", "Samples n", "Clusters k", "Dimensions d")
	for _, r := range perfmodel.TableI(machine.MustSpec(40960)) {
		t.AddStringRow(r.Approach, r.Hardware, r.Model,
			fmt.Sprintf("%.0g", r.N), fmt.Sprintf("%d", r.K), fmt.Sprintf("%d", r.D))
	}
	return c.emit(t)
}

func tableTwo(c *ctx) error {
	t := report.NewTable("Table II — Benchmarks (synthetic generators with the published shapes)",
		"Data Set", "n", "k (evaluated up to)", "d")
	t.AddStringRow("Kegg Network", fmt.Sprintf("%d", dataset.KeggN), "256", fmt.Sprintf("%d", dataset.KeggD))
	t.AddStringRow("Road Network", fmt.Sprintf("%d", dataset.RoadN), "10,000", fmt.Sprintf("%d", dataset.RoadD))
	t.AddStringRow("US Census 1990", fmt.Sprintf("%d", dataset.CensusN), "10,000", fmt.Sprintf("%d", dataset.CensusD))
	t.AddStringRow("ILSVRC2012 (ImgNet)", fmt.Sprintf("%d", dataset.ImgNetN), "160,000", fmt.Sprintf("%d", dataset.ImgNetD))
	return c.emit(t)
}

func figureThree(c *ctx) error {
	if err := c.emit(seriesTable(
		"Figure 3 — Level 1 (dataflow partition), one SW26010 processor [model, calibrated]",
		"k", perfmodel.Figure3())); err != nil {
		return err
	}
	if err := c.plotSeries("Figure 3 (model, log y)", perfmodel.Figure3()[:1]); err != nil {
		return err
	}
	if !c.functional {
		return nil
	}
	// Functional cross-check at reduced n (scale 16) on the simulated
	// machine; times are uncalibrated simulator seconds.
	src, err := dataset.Kegg(16)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 3 functional cross-check — Kegg/16, 1 node [simulator, uncalibrated]",
		"k", "sim s/iter")
	for _, k := range []int{16, 32, 64, 128, 256} {
		res, err := core.Run(core.Config{
			Spec: machine.MustSpec(1), Level: core.Level1, K: k, MaxIters: 2, Seed: 1, Sched: c.sched,
		}, src)
		if err != nil {
			return err
		}
		t.AddStringRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.6f", res.MeanIterTime()))
	}
	return c.emit(t)
}

func figureFour(c *ctx) error {
	if err := c.emit(seriesTable(
		"Figure 4 — Level 2 (dataflow+centroid partition), one SW26010 processor [model, calibrated]",
		"k", perfmodel.Figure4())); err != nil {
		return err
	}
	if !c.functional {
		return nil
	}
	src, err := dataset.Kegg(16) // n=4097
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 4 functional cross-check — Kegg/16, 1 node, Level 2 [simulator, uncalibrated]",
		"k", "sim s/iter")
	for _, k := range []int{512, 1024, 2048} {
		res, err := core.Run(core.Config{
			Spec: machine.MustSpec(1), Level: core.Level2, K: k, MaxIters: 1, Seed: 1, SampleStride: 4, Sched: c.sched,
		}, src)
		if err != nil {
			return err
		}
		t.AddStringRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.6f", res.MeanIterTime()))
	}
	return c.emit(t)
}

func figureFive(c *ctx) error {
	if err := c.emit(seriesTable(
		"Figure 5 — Level 3 (nkd partition), ImgNet shape, 128 nodes [model, calibrated]",
		"k", perfmodel.Figure5())); err != nil {
		return err
	}
	if !c.functional {
		return nil
	}
	t := report.NewTable("Figure 5 functional cross-check — ImgNet/1024 (n=1236), d=3072, 2 nodes [simulator, uncalibrated]",
		"k", "sim s/iter")
	src, err := dataset.ImgNet(3072, 1024)
	if err != nil {
		return err
	}
	for _, k := range []int{128, 256, 512} {
		res, err := core.Run(core.Config{
			Spec: machine.MustSpec(2), Level: core.Level3, K: k, MaxIters: 1, Seed: 1, SampleStride: 8, Sched: c.sched,
		}, src)
		if err != nil {
			return err
		}
		t.AddStringRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.6f", res.MeanIterTime()))
	}
	return c.emit(t)
}

func figureSix(c *ctx) error {
	if err := c.emit(seriesTable(
		"Figure 6a — Level 3 large-scale centroid scaling (d=3,072, 128 nodes) [model, calibrated]",
		"k", []perfmodel.Series{perfmodel.Figure6Centroids()})); err != nil {
		return err
	}
	if err := c.emit(seriesTable(
		"Figure 6b — Level 3 node scaling (d=196,608, k=2,000; paper: <18 s at 4,096 nodes) [model, calibrated]",
		"nodes", []perfmodel.Series{perfmodel.Figure6Nodes()})); err != nil {
		return err
	}
	if err := c.plotSeries("Figure 6b (model, log y)", []perfmodel.Series{perfmodel.Figure6Nodes()}); err != nil {
		return err
	}
	if !c.functional {
		return nil
	}
	return figureSixFunctional(c)
}

// Figure 6b DES sweep shape: the full published sample count and
// centroid count on 128 to 1,024 nodes (512 to 4,096 ranks), executed
// in-process by the discrete-event driver rather than extrapolated by
// the model. The paper's sweep reaches 4,096 nodes at d=196,608. This
// one stops at 1,024 nodes, the 4,096-rank scale make schedcheck also
// pins, and at d=1,024, so the table stays a cross-check that
// `benchfig -functional` runs in about a second. The published point
// itself executes through cmd/swkmeans, but it takes minutes and
// several gigabytes of host memory (DESIGN.md §5), too much for a
// figure sweep. Samples are strided; simulated time still charges the
// full dataflow, so the node-scaling shape survives. MPrime is pinned
// so per-rank centroid slices stay small at every node count, and the
// model column re-uses the same pin via Scenario.MPrime.
const (
	f6bD      = 1024
	f6bK      = 2000
	f6bMPrime = 128
)

// f6bNodes and f6bStride are variables so the test suite can shrink
// the sweep — the race detector multiplies the 4,096-rank points'
// cost several-fold. The CLI always runs this full list, and make
// schedcheck re-pins the 4,096-rank scale in CI on every push.
var (
	f6bNodes  = []int{128, 512, 1024}
	f6bStride = 2048
)

func figureSixFunctional(c *ctx) error {
	src, err := dataset.ImgNet(f6bD, 1)
	if err != nil {
		return err
	}
	// The model column is de-calibrated (divided by CalibrationFactor)
	// to the simulator's theoretical-bandwidth scale, the same
	// comparison the perfmodel consistency suite makes.
	t := report.NewTable(
		fmt.Sprintf("Figure 6b functional cross-check — full n=%d, d=%d, k=%d, DES driver [simulator, uncalibrated]",
			src.N(), f6bD, f6bK),
		"nodes", "ranks", "sim s/iter", "model s/iter", "model/sim")
	for _, nodes := range f6bNodes {
		row := []string{fmt.Sprintf("%d", nodes), fmt.Sprintf("%d", 4*nodes)}
		res, err := core.Run(core.Config{
			Spec: machine.MustSpec(nodes), Level: core.Level3, K: f6bK,
			MPrimeGroup: f6bMPrime, MaxIters: 1, Seed: 1,
			SampleStride: f6bStride, Sched: true,
		}, src)
		if err != nil {
			t.AddStringRow(append(row, "cannot run", "", "")...)
			continue
		}
		sim := res.MeanIterTime()
		row = append(row, fmt.Sprintf("%.6f", sim))
		pred, err := perfmodel.Predict(core.Level3, perfmodel.Scenario{
			Nodes: nodes, N: src.N(), K: f6bK, D: f6bD, MPrime: f6bMPrime,
		})
		if err != nil {
			t.AddStringRow(append(row, "cannot model", "")...)
			continue
		}
		model := pred.Total / perfmodel.CalibrationFactor
		t.AddStringRow(append(row, fmt.Sprintf("%.6f", model), fmt.Sprintf("%.2f", model/sim))...)
	}
	return c.emit(t)
}

func figureSeven(c *ctx) error {
	if err := c.emit(seriesTable(
		"Figure 7 — L2 vs L3, varying d (k=2,000, n=1,265,723, 128 nodes) [model, calibrated]",
		"d", perfmodel.Figure7())); err != nil {
		return err
	}
	if err := c.plotSeries("Figure 7 (model, log y)", perfmodel.Figure7()); err != nil {
		return err
	}
	if !c.functional {
		return nil
	}
	// Reduced scale: same who-wins shape with n/512, k=200, 2 nodes.
	t := report.NewTable("Figure 7 functional cross-check — n=2472, k=200, 2 nodes [simulator, uncalibrated]",
		"d", "Level 2 (s)", "Level 3 (s)")
	for _, d := range []int{256, 1024, 4096} {
		src, err := dataset.ImgNet(d, 512)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("%d", d)}
		for _, lv := range []core.Level{core.Level2, core.Level3} {
			res, err := core.Run(core.Config{
				Spec: machine.MustSpec(2), Level: lv, K: 200, MaxIters: 1, Seed: 1, SampleStride: 8, Sched: c.sched,
			}, src)
			if err != nil {
				row = append(row, "cannot run")
				continue
			}
			row = append(row, fmt.Sprintf("%.6f", res.MeanIterTime()))
		}
		t.AddStringRow(row...)
	}
	return c.emit(t)
}

func figureEight(c *ctx) error {
	if err := c.emit(seriesTable(
		"Figure 8 — L2 vs L3, varying k (d=4,096, n=1,265,723, 128 nodes) [model, calibrated]",
		"k", perfmodel.Figure8())); err != nil {
		return err
	}
	if err := c.plotSeries("Figure 8 (model, log y)", perfmodel.Figure8()); err != nil {
		return err
	}
	if !c.functional {
		return nil
	}
	src, err := dataset.ImgNet(4096, 512)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 8 functional cross-check — n=2472, d=4096, 2 nodes [simulator, uncalibrated]",
		"k", "Level 2 (s)", "Level 3 (s)")
	for _, k := range []int{64, 256, 1024} {
		row := []string{fmt.Sprintf("%d", k)}
		for _, lv := range []core.Level{core.Level2, core.Level3} {
			res, err := core.Run(core.Config{
				Spec: machine.MustSpec(2), Level: lv, K: k, MaxIters: 1, Seed: 1, SampleStride: 8, Sched: c.sched,
			}, src)
			if err != nil {
				row = append(row, "cannot run")
				continue
			}
			row = append(row, fmt.Sprintf("%.6f", res.MeanIterTime()))
		}
		t.AddStringRow(row...)
	}
	return c.emit(t)
}

func figureNine(c *ctx) error {
	if err := c.emit(seriesTable(
		"Figure 9 — L2 vs L3, varying nodes (d=4,096, k=2,000, n=1,265,723) [model, calibrated]",
		"nodes", perfmodel.Figure9())); err != nil {
		return err
	}
	if err := c.plotSeries("Figure 9 (model, log y)", perfmodel.Figure9()); err != nil {
		return err
	}
	if !c.functional {
		return nil
	}
	src, err := dataset.ImgNet(4096, 512)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 9 functional cross-check — n=2472, d=4096, k=200 [simulator, uncalibrated]",
		"nodes", "Level 2 (s)", "Level 3 (s)")
	for _, nodes := range []int{1, 2, 4} {
		row := []string{fmt.Sprintf("%d", nodes)}
		for _, lv := range []core.Level{core.Level2, core.Level3} {
			res, err := core.Run(core.Config{
				Spec: machine.MustSpec(nodes), Level: lv, K: 200, MaxIters: 1, Seed: 1, SampleStride: 8, Sched: c.sched,
			}, src)
			if err != nil {
				row = append(row, "cannot run")
				continue
			}
			row = append(row, fmt.Sprintf("%.6f", res.MeanIterTime()))
		}
		t.AddStringRow(row...)
	}
	return c.emit(t)
}

func tableThree(c *ctx) error {
	rows, err := perfmodel.TableIII()
	if err != nil {
		return err
	}
	t := report.NewTable("Table III — Execution time comparison with other architectures",
		"Approach", "Hardware", "n", "k", "d",
		"their s/iter", "paper Sunway s/iter", "paper speedup",
		"model Sunway s/iter", "model speedup", "model level")
	for _, r := range rows {
		t.AddStringRow(r.Approach, r.Hardware,
			fmt.Sprintf("%d", r.N), fmt.Sprintf("%d", r.K), fmt.Sprintf("%d", r.D),
			fmt.Sprintf("%.4f", r.TheirSeconds),
			fmt.Sprintf("%.6f (%d nodes)", r.PaperSeconds, r.PaperNodes),
			fmt.Sprintf("%.0fx", r.PaperSpeedup),
			fmt.Sprintf("%.6f", r.ModelSeconds),
			fmt.Sprintf("%.0fx", r.ModelSpeedup),
			r.ModelLevelUsed)
	}
	return c.emit(t)
}
