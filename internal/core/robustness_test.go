package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
)

// TestKMeansPlusPlusResistsOutliers: with k = true components, seeding
// must not waste all its centroids on the outlier background.
func TestKMeansPlusPlusResistsOutliers(t *testing.T) {
	h, err := dataset.NewHardMixture("hard", 500, 8, 3, 0.1, 2.0, 1, 0.05, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Spec: machine.MustSpec(1), Level: Level1, K: 3, MaxIters: 30,
		Init: InitKMeansPlusPlus, Seed: 4,
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	// Each true component must dominate some cluster: for every
	// component, the majority of its samples share one assignment.
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		total := 0
		for i := 0; i < h.N(); i++ {
			if h.TrueLabel(i) == c {
				counts[res.Assign[i]]++
				total++
			}
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		if best*2 < total {
			t.Errorf("component %d split across clusters: %v", c, counts)
		}
	}
}

// TestEmptyClusterRecoveryUnderFaults: the empty-cluster policy (a
// centroid that attracts nothing stays exactly where it is) must
// survive every class of injected fault — crashes with restart,
// transient message and DMA noise, degraded links and stragglers —
// because checkpoint/restore and survivor re-planning replay the same
// update rule. Fault plans are given in the -faults CLI syntax to
// cover the parser on realistic specs.
func TestEmptyClusterRecoveryUnderFaults(t *testing.T) {
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = []float64{float64(i%5) * 0.01, float64(i%7) * 0.01}
	}
	m, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	initial := []float64{
		0, 0, // near the data
		1e6, 1e6, // unreachable: stays empty forever
	}
	cases := []struct {
		name string
		spec string // -faults syntax
		drop bool
	}{
		{name: "crash-restart", spec: "crash=1@1e-5; hb=1e-5"},
		{name: "crash-drop-shard", spec: "crash=2@1e-5; hb=1e-5", drop: true},
		{name: "double-crash", spec: "crash=1@8e-6; crash=3@2e-5; hb=1e-5"},
		{name: "transient-noise", spec: "seed=7; msg=0.1; dma=0.05; retries=64"},
		{name: "degraded-link", spec: "link=*@0:1x8"},
		{name: "straggler", spec: "slow=1x2; slow=2:5x3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.ParsePlan(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, level := range []Level{Level1, Level2} {
				res, err := Run(Config{
					Spec: machine.MustSpec(1), Level: level, K: 2, MaxIters: 10,
					Initial: initial, Faults: plan, CheckpointInterval: 2,
					DropLostShards: tc.drop,
				}, m)
				if err != nil {
					t.Fatalf("%v: %v", level, err)
				}
				if res.Centroid(1)[0] != 1e6 || res.Centroid(1)[1] != 1e6 {
					t.Errorf("%v: empty centroid moved to %v", level, res.Centroid(1))
				}
				for i, a := range res.Assign {
					if tc.drop && a == -1 {
						continue // dropped shard
					}
					if a != 0 {
						t.Errorf("%v: sample %d assigned to %d, want the live cluster", level, i, a)
					}
				}
				if !res.Converged {
					t.Errorf("%v: did not converge with a frozen empty cluster", level)
				}
			}
		})
	}
}
