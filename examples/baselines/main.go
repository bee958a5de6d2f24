// Baselines: the single-node algorithm family the paper positions
// itself against, on one dataset — exact Lloyd, Hamerly's and Elkan's
// bound-accelerated variants (the Yinyang family of Table III's Ding
// row), mini-batch SGD, and Guha-style hierarchical streaming (the
// ancestor of the Level-2 two-level-memory design). All produce
// centroids for the same mixture; the table compares distance
// computations, iterations and solution quality, and the last row runs
// the simulated machine for contrast.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/quality"
	"repro/internal/report"
	"repro/internal/stream"
)

func main() {
	g, err := dataset.NewGaussianMixture("baselines", 4000, 16, 8, 0.2, 2.0, 11)
	if err != nil {
		log.Fatal(err)
	}
	truth := make([]int, g.N())
	for i := range truth {
		truth[i] = g.TrueLabel(i)
	}
	init, err := core.KMeansPlusPlus(g, 8, 11)
	if err != nil {
		log.Fatal(err)
	}

	t := report.NewTable("single-node baselines on 4,000 x 16, k=8",
		"algorithm", "iterations", "distance computations", "ARI", "objective")
	addRow := func(name string, iters int, distances int64, cents []float64, assign []int) {
		ari, err := quality.ARI(assign, truth)
		if err != nil {
			log.Fatal(err)
		}
		obj, err := quality.Objective(g, cents, g.D(), assign)
		if err != nil {
			log.Fatal(err)
		}
		t.AddStringRow(name, fmt.Sprintf("%d", iters), fmt.Sprintf("%d", distances),
			fmt.Sprintf("%.4f", ari), fmt.Sprintf("%.4f", obj))
	}

	lloyd, err := core.LloydFrom(g, init, 40, 0)
	if err != nil {
		log.Fatal(err)
	}
	addRow("Lloyd (exact)", lloyd.Iters, int64(g.N())*8*int64(lloyd.Iters), lloyd.Centroids, lloyd.Assign)

	ham, err := accel.Hamerly(g, init, 40, 0)
	if err != nil {
		log.Fatal(err)
	}
	addRow("Hamerly (exact, bounds)", ham.Counters.Iters, ham.Counters.Distances, ham.Centroids, ham.Assign)

	elk, err := accel.Elkan(g, init, 40, 0)
	if err != nil {
		log.Fatal(err)
	}
	addRow("Elkan (exact, k bounds)", elk.Counters.Iters, elk.Counters.Distances, elk.Centroids, elk.Assign)

	mb, err := accel.MiniBatch(g, init, 40, 128, 11)
	if err != nil {
		log.Fatal(err)
	}
	addRow("mini-batch (approx.)", mb.Counters.Iters, mb.Counters.Distances, mb.Centroids, mb.Assign)

	st, err := stream.KMeans(g, 8, 500, 15, 11)
	if err != nil {
		log.Fatal(err)
	}
	stAssign := assignAll(g, st.Centroids)
	addRow(fmt.Sprintf("streaming (%d chunks)", st.Chunks), st.Levels, -1, st.Centroids, stAssign)

	if err := t.Render(log.Writer()); err != nil {
		log.Fatal(err)
	}

	// And the machine: the same problem on a simulated deployment.
	spec, err := repro.NewMachine(1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := repro.Run(repro.Config{
		Spec: spec, Level: repro.Level3, K: 8, MaxIters: 40,
		Initial: init,
	}, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated machine (%v): %d iterations, %.6f simulated s/iter\n",
		res.Plan, res.Iters, res.MeanIterTime())
}

func assignAll(src dataset.Source, cents []float64) []int {
	d := src.D()
	assign := make([]int, src.N())
	buf := make([]float64, d)
	for i := 0; i < src.N(); i++ {
		src.Sample(i, buf)
		assign[i], _ = core.Nearest(buf, cents, d, -1)
	}
	return assign
}
