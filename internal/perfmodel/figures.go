package perfmodel

import (
	"repro/internal/core"
	"repro/internal/dataset"
)

// Point is one figure data point: an x value and the modelled
// one-iteration completion time (seconds); Infeasible marks operating
// points the level cannot run ("cannot run ... due to memory
// constraints" in Figure 7).
type Point struct {
	X          int
	Seconds    float64
	Infeasible bool
	Reason     string
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Level  core.Level
	Points []Point
}

// Sweep evaluates one level over x values mapped to scenarios by sc,
// recording infeasible points the way the paper's figures report them
// ("cannot run"). It is the building block of every figure series and
// is exported so downstream users can compose custom sweeps.
func Sweep(name string, level core.Level, xs []int, sc func(x int) Scenario) Series {
	s := Series{Name: name, Level: level}
	for _, x := range xs {
		p, err := Predict(level, sc(x))
		if err != nil {
			s.Points = append(s.Points, Point{X: x, Infeasible: true, Reason: err.Error()})
			continue
		}
		s.Points = append(s.Points, Point{X: x, Seconds: p.Total})
	}
	return s
}

// sweep is the internal alias used by the figure generators.
func sweep(name string, level core.Level, xs []int, sc func(x int) Scenario) Series {
	return Sweep(name, level, xs, sc)
}

// doublings returns lo, 2lo, ... up to hi inclusive.
func doublings(lo, hi int) []int {
	var xs []int
	for x := lo; x <= hi; x *= 2 {
		xs = append(xs, x)
	}
	return xs
}

// Figure3 models the Level-1 dataflow partition on the three UCI
// datasets over the published k ranges, on one SW26010 processor (the
// Level-1 hardware setup of Section IV.B).
func Figure3() []Series {
	return []Series{
		sweep("US Census 1990", core.Level1, doublings(4, 64), func(k int) Scenario {
			return Scenario{Nodes: 1, N: dataset.CensusN, K: k, D: dataset.CensusD}
		}),
		sweep("Road Network", core.Level1, doublings(64, 1024), func(k int) Scenario {
			return Scenario{Nodes: 1, N: dataset.RoadN, K: k, D: dataset.RoadD}
		}),
		sweep("Kegg Network", core.Level1, doublings(16, 256), func(k int) Scenario {
			return Scenario{Nodes: 1, N: dataset.KeggN, K: k, D: dataset.KeggD}
		}),
	}
}

// Figure4 models the Level-2 nk-partition over the published
// large-k ranges. The paper's per-curve node counts are unreported
// ("up-to 256 processors"); one processor reproduces the reported
// magnitudes best and is used here (see EXPERIMENTS.md).
func Figure4() []Series {
	return []Series{
		sweep("US Census 1990", core.Level2, doublings(256, 4096), func(k int) Scenario {
			return Scenario{Nodes: 1, N: dataset.CensusN, K: k, D: dataset.CensusD}
		}),
		sweep("Road Network", core.Level2, []int{6250, 12500, 25000, 50000, 100000}, func(k int) Scenario {
			return Scenario{Nodes: 1, N: dataset.RoadN, K: k, D: dataset.RoadD}
		}),
		sweep("Kegg Network", core.Level2, doublings(512, 8192), func(k int) Scenario {
			return Scenario{Nodes: 1, N: dataset.KeggN, K: k, D: dataset.KeggD}
		}),
	}
}

// Figure5 models the Level-3 nkd-partition on the ImageNet-shaped
// dataset across the k-by-d grid of the paper (d = 32x32x3, 64x64x3,
// 256x256x3), on 128 nodes.
func Figure5() []Series {
	var out []Series
	for _, d := range []int{3072, 12288, 196608} {
		d := d
		out = append(out, sweep(figure5Name(d), core.Level3, doublings(128, 2048), func(k int) Scenario {
			return Scenario{Nodes: 128, N: dataset.ImgNetN, K: k, D: d}
		}))
	}
	return out
}

func figure5Name(d int) string {
	switch d {
	case 3072:
		return "d=3,072 (32x32x3)"
	case 12288:
		return "d=12,288 (64x64x3)"
	default:
		return "d=196,608 (256x256x3)"
	}
}

// Figure6Centroids models the first large-scale Level-3 test: scaling
// the centroid count at d=3,072 on 128 nodes.
func Figure6Centroids() Series {
	return sweep("d=3,072 on 128 nodes", core.Level3, doublings(4096, 131072), func(k int) Scenario {
		return Scenario{Nodes: 128, N: dataset.ImgNetN, K: k, D: 3072}
	})
}

// Figure6Nodes models the second large-scale Level-3 test: scaling the
// node count at the headline shape d=196,608, k=2,000.
func Figure6Nodes() Series {
	return sweep("d=196,608 k=2,000", core.Level3, doublings(256, 4096), func(nodes int) Scenario {
		return Scenario{Nodes: nodes, N: dataset.ImgNetN, K: 2000, D: 196608}
	})
}

// Figure7 compares Levels 2 and 3 while the dimension count grows
// (k=2,000, n=1,265,723, 128 nodes). Level 2 becomes infeasible above
// d=4,096, exactly as the paper reports.
func Figure7() []Series {
	var xs []int
	for d := 512; d <= 8192; d += 512 {
		xs = append(xs, d)
	}
	mk := func(level core.Level, name string) Series {
		return sweep(name, level, xs, func(d int) Scenario {
			return Scenario{Nodes: 128, N: dataset.ImgNetN, K: 2000, D: d}
		})
	}
	return []Series{mk(core.Level2, "Level 2"), mk(core.Level3, "Level 3")}
}

// Figure8 compares Levels 2 and 3 while the centroid count grows
// (d=4,096, n=1,265,723, 128 nodes).
func Figure8() []Series {
	xs := doublings(256, 131072)
	mk := func(level core.Level, name string) Series {
		return sweep(name, level, xs, func(k int) Scenario {
			return Scenario{Nodes: 128, N: dataset.ImgNetN, K: k, D: 4096}
		})
	}
	return []Series{mk(core.Level2, "Level 2"), mk(core.Level3, "Level 3")}
}

// Figure9 compares Levels 2 and 3 while the node count grows
// (d=4,096, k=2,000, n=1,265,723).
func Figure9() []Series {
	xs := doublings(2, 256)
	mk := func(level core.Level, name string) Series {
		return sweep(name, level, xs, func(nodes int) Scenario {
			return Scenario{Nodes: nodes, N: dataset.ImgNetN, K: 2000, D: 4096}
		})
	}
	return []Series{mk(core.Level2, "Level 2"), mk(core.Level3, "Level 3")}
}
