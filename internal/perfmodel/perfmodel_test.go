package perfmodel

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/machine"
)

func TestPredictValidation(t *testing.T) {
	if _, err := Predict(core.Level1, Scenario{Nodes: 0, N: 100, K: 4, D: 4}); err == nil {
		t.Error("nodes=0 accepted")
	}
	if _, err := Predict(core.Level(9), Scenario{Nodes: 1, N: 100, K: 4, D: 4}); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := Predict(core.Level1, Scenario{Nodes: 1, N: 100, K: 4096, D: 68}); err == nil {
		t.Error("C1-violating shape accepted at Level 1")
	}
}

func TestPredictBreakdownSums(t *testing.T) {
	p, err := Predict(core.Level1, Scenario{Nodes: 1, N: dataset.KeggN, K: 256, D: 28})
	if err != nil {
		t.Fatal(err)
	}
	sum := p.Read + p.Compute + p.Reg + p.Net
	if diff := p.Total - sum; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("Total %g != sum of parts %g", p.Total, sum)
	}
	if p.Total <= 0 {
		t.Error("non-positive prediction")
	}
}

// TestHeadlineUnderEighteenSeconds checks the paper's headline claim:
// less than 18 seconds per iteration at n=1,265,723, d=196,608,
// k=2,000 on 4,096 nodes.
func TestHeadlineUnderEighteenSeconds(t *testing.T) {
	p, err := Predict(core.Level3, Scenario{Nodes: 4096, N: dataset.ImgNetN, K: 2000, D: 196608})
	if err != nil {
		t.Fatal(err)
	}
	if p.Total >= 18 {
		t.Errorf("headline prediction %.2f s, paper reports < 18 s", p.Total)
	}
	if p.Total < 1 {
		t.Errorf("headline prediction %.2f s implausibly fast", p.Total)
	}
}

// TestFigure7Envelope: Level 2 wins at small d, Level 3 at large d,
// Level 2 infeasible beyond 4,096 — with both curves monotone in d.
func TestFigure7Envelope(t *testing.T) {
	series := Figure7()
	if len(series) != 2 {
		t.Fatalf("Figure7 returned %d series", len(series))
	}
	l2, l3 := series[0], series[1]
	byX := func(s Series, x int) Point {
		for _, p := range s.Points {
			if p.X == x {
				return p
			}
		}
		t.Fatalf("series %q missing x=%d", s.Name, x)
		return Point{}
	}
	if p := byX(l2, 512); p.Infeasible || p.Seconds >= byX(l3, 512).Seconds {
		t.Errorf("at d=512 Level 2 (%+v) should beat Level 3 (%+v)", p, byX(l3, 512))
	}
	if p := byX(l2, 4096); p.Infeasible || p.Seconds <= byX(l3, 4096).Seconds {
		t.Errorf("at d=4096 Level 3 should win: L2=%+v L3=%+v", p, byX(l3, 4096))
	}
	for _, d := range []int{4608, 8192} {
		if p := byX(l2, d); !p.Infeasible {
			t.Errorf("Level 2 at d=%d should be infeasible, got %.3f s", d, p.Seconds)
		}
	}
	for _, d := range []int{4608, 8192} {
		if p := byX(l3, d); p.Infeasible {
			t.Errorf("Level 3 at d=%d should run: %s", d, p.Reason)
		}
	}
	// Monotone growth along each feasible prefix.
	assertMonotone(t, l2, true)
	assertMonotone(t, l3, false)
}

func assertMonotone(t *testing.T, s Series, allowInfeasibleTail bool) {
	t.Helper()
	prev := 0.0
	for _, p := range s.Points {
		if p.Infeasible {
			if !allowInfeasibleTail {
				t.Errorf("series %q unexpectedly infeasible at %d: %s", s.Name, p.X, p.Reason)
			}
			continue
		}
		if p.Seconds < prev {
			t.Errorf("series %q not monotone at x=%d: %g after %g", s.Name, p.X, p.Seconds, prev)
		}
		prev = p.Seconds
	}
}

// TestFigure8LevelThreeAlwaysWins: at d=4,096 Level 3 outperforms
// Level 2 for every k, with the absolute gap increasing in k.
func TestFigure8LevelThreeAlwaysWins(t *testing.T) {
	series := Figure8()
	l2, l3 := series[0], series[1]
	prevGap := 0.0
	for i := range l2.Points {
		p2, p3 := l2.Points[i], l3.Points[i]
		if p2.Infeasible || p3.Infeasible {
			t.Fatalf("unexpected infeasible point at k=%d", p2.X)
		}
		if p3.Seconds >= p2.Seconds {
			t.Errorf("k=%d: Level 3 (%.2f) not faster than Level 2 (%.2f)", p2.X, p3.Seconds, p2.Seconds)
		}
		gap := p2.Seconds - p3.Seconds
		if gap < prevGap {
			t.Errorf("k=%d: gap %.2f shrank from %.2f", p2.X, gap, prevGap)
		}
		prevGap = gap
	}
}

// TestFigure9StrongScaling: both levels speed up with nodes, Level 3
// always wins, and the absolute gap narrows as nodes grow.
func TestFigure9StrongScaling(t *testing.T) {
	series := Figure9()
	l2, l3 := series[0], series[1]
	var prev2, prev3 float64
	for i := range l2.Points {
		p2, p3 := l2.Points[i], l3.Points[i]
		if p2.Infeasible || p3.Infeasible {
			t.Fatalf("unexpected infeasible point at nodes=%d: %s %s", p2.X, p2.Reason, p3.Reason)
		}
		if p3.Seconds >= p2.Seconds {
			t.Errorf("nodes=%d: Level 3 (%.2f) not faster than Level 2 (%.2f)", p2.X, p3.Seconds, p2.Seconds)
		}
		if i > 0 {
			if p2.Seconds >= prev2 || p3.Seconds >= prev3 {
				t.Errorf("nodes=%d: times did not improve (%.2f/%.2f after %.2f/%.2f)",
					p2.X, p2.Seconds, p3.Seconds, prev2, prev3)
			}
			gap := p2.Seconds - p3.Seconds
			prevGap := prev2 - prev3
			if gap >= prevGap {
				t.Errorf("nodes=%d: gap %.2f did not narrow from %.2f", p2.X, gap, prevGap)
			}
		}
		prev2, prev3 = p2.Seconds, p3.Seconds
	}
}

// TestFigure3LinearInK: Level-1 completion time grows roughly linearly
// with k (the paper: "the completion time ... grows linearly").
func TestFigure3LinearInK(t *testing.T) {
	for _, s := range Figure3() {
		if len(s.Points) < 3 {
			t.Fatalf("series %q too short", s.Name)
		}
		for _, p := range s.Points {
			if p.Infeasible {
				t.Fatalf("series %q infeasible at k=%d (must match Figure 3 envelope)", s.Name, p.X)
			}
		}
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		kRatio := float64(last.X) / float64(first.X)
		tRatio := last.Seconds / first.Seconds
		// Linear-with-offset: the time ratio must grow substantially
		// with k but not faster than k itself.
		if tRatio < kRatio/8 || tRatio > kRatio*1.5 {
			t.Errorf("series %q: k grew %.0fx, time grew %.1fx — not roughly linear", s.Name, kRatio, tRatio)
		}
	}
}

func TestFigure4CoversPublishedRanges(t *testing.T) {
	for _, s := range Figure4() {
		for _, p := range s.Points {
			if p.Infeasible {
				t.Errorf("series %q: Level 2 infeasible at k=%d: %s", s.Name, p.X, p.Reason)
			}
		}
	}
}

func TestFigure5GridFeasible(t *testing.T) {
	series := Figure5()
	if len(series) != 3 {
		t.Fatalf("Figure5 returned %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 5 {
			t.Errorf("series %q has %d points, want 5 (k=128..2048)", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Infeasible {
				t.Errorf("series %q infeasible at k=%d: %s", s.Name, p.X, p.Reason)
			}
		}
		assertMonotone(t, s, false)
	}
}

func TestFigure6Scaling(t *testing.T) {
	kSeries := Figure6Centroids()
	assertMonotone(t, kSeries, false)
	for _, p := range kSeries.Points {
		if p.Infeasible {
			t.Errorf("Figure 6 centroid scaling infeasible at k=%d: %s", p.X, p.Reason)
		}
	}
	nodeSeries := Figure6Nodes()
	prev := 0.0
	for i, p := range nodeSeries.Points {
		if p.Infeasible {
			t.Fatalf("Figure 6 node scaling infeasible at %d nodes: %s", p.X, p.Reason)
		}
		if i > 0 && p.Seconds >= prev {
			t.Errorf("nodes=%d: %g did not improve on %g", p.X, p.Seconds, prev)
		}
		prev = p.Seconds
	}
	last := nodeSeries.Points[len(nodeSeries.Points)-1]
	if last.X != 4096 || last.Seconds >= 18 {
		t.Errorf("headline point = %+v, want < 18 s at 4096 nodes", last)
	}
}

func TestBestLevelPicksFlexibly(t *testing.T) {
	// Tiny d, small k: Level 1 or 2 should win.
	small, err := BestLevel(Scenario{Nodes: 1, N: dataset.RoadN, K: 64, D: 4})
	if err != nil {
		t.Fatal(err)
	}
	if small.Level == core.Level3 {
		t.Errorf("tiny shape picked %v", small.Level)
	}
	// Huge d and k: only Level 3 is feasible.
	big, err := BestLevel(Scenario{Nodes: 4096, N: dataset.ImgNetN, K: 160000, D: 196608})
	if err != nil {
		t.Fatal(err)
	}
	if big.Level != core.Level3 {
		t.Errorf("capability shape picked %v", big.Level)
	}
	// Nothing feasible: k>n.
	if _, err := BestLevel(Scenario{Nodes: 1, N: 10, K: 100, D: 4}); err == nil {
		t.Error("impossible scenario accepted")
	}
}

func TestTableIII(t *testing.T) {
	rows, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("TableIII returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ModelSeconds <= 0 {
			t.Errorf("%s: non-positive model time", r.Approach)
		}
		if r.ModelSpeedup <= 1 {
			t.Errorf("%s: Sunway should beat the comparator, got %.1fx", r.Approach, r.ModelSpeedup)
		}
		// Same order of magnitude as the paper's reported speedup.
		ratio := r.ModelSpeedup / r.PaperSpeedup
		if ratio < 0.2 || ratio > 8 {
			t.Errorf("%s: model speedup %.0fx vs paper %.0fx (ratio %.2f out of band)",
				r.Approach, r.ModelSpeedup, r.PaperSpeedup, ratio)
		}
	}
	// The calibration anchor row must be close.
	anchor := rows[0]
	if anchor.ModelSeconds < anchor.PaperSeconds*0.5 || anchor.ModelSeconds > anchor.PaperSeconds*2 {
		t.Errorf("calibration anchor: model %.3f s vs paper %.3f s", anchor.ModelSeconds, anchor.PaperSeconds)
	}
}

func TestTableI(t *testing.T) {
	spec := machine.MustSpec(40960) // the full TaihuLight
	rows := TableI(spec)
	if len(rows) != 10 {
		t.Fatalf("TableI returned %d rows", len(rows))
	}
	ours := rows[len(rows)-1]
	if ours.Published {
		t.Error("our row marked published")
	}
	if !strings.Contains(ours.Approach, "Our approach") {
		t.Errorf("last row = %q", ours.Approach)
	}
	// The paper's capability claim: 160,000 centroids at 196,608
	// dimensions.
	if ours.K < 160000 {
		t.Errorf("max k = %d, paper claims 160,000", ours.K)
	}
	if ours.D < 196608 {
		t.Errorf("max d = %d, paper claims 196,608", ours.D)
	}
}

func TestMaxD(t *testing.T) {
	spec := machine.MustSpec(1)
	d := MaxD(spec)
	if d%machine.CPEsPerCG != 0 {
		t.Errorf("MaxD = %d not CPE-aligned", d)
	}
	if 3*d+1 > machine.CPEsPerCG*16384 {
		t.Errorf("MaxD = %d violates C\"2", d)
	}
	if d < 196608 {
		t.Errorf("MaxD = %d below the paper's 196,608", d)
	}
}

func TestSweepExported(t *testing.T) {
	s := Sweep("custom", core.Level3, []int{64, 128}, func(k int) Scenario {
		return Scenario{Nodes: 8, N: 100000, K: k, D: 3072}
	})
	if len(s.Points) != 2 {
		t.Fatalf("%d points", len(s.Points))
	}
	for _, p := range s.Points {
		if p.Infeasible {
			t.Errorf("k=%d infeasible: %s", p.X, p.Reason)
		}
	}
	if s.Points[1].Seconds <= s.Points[0].Seconds {
		t.Error("custom sweep not monotone in k")
	}
	// Infeasible points are recorded, not dropped.
	bad := Sweep("bad", core.Level1, []int{100000}, func(k int) Scenario {
		return Scenario{Nodes: 1, N: 200000, K: k, D: 68}
	})
	if !bad.Points[0].Infeasible {
		t.Error("constraint violation not recorded")
	}
}
