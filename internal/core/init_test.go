package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
)

func TestInitMethodString(t *testing.T) {
	if InitBlocks.String() != "blocks" || InitKMeansPlusPlus.String() != "kmeans++" {
		t.Error("InitMethod strings wrong")
	}
	if InitMethod(9).String() != "init(9)" {
		t.Error("unknown InitMethod string wrong")
	}
}

func TestKMeansPlusPlusDeterministic(t *testing.T) {
	g := mixture(t, 200, 8, 4)
	a, err := KMeansPlusPlus(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeansPlusPlus(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("kmeans++ not deterministic")
		}
	}
	c, err := KMeansPlusPlus(g, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds chose identical centers")
	}
}

func TestKMeansPlusPlusValidation(t *testing.T) {
	g := mixture(t, 10, 2, 2)
	if _, err := KMeansPlusPlus(g, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeansPlusPlus(g, 11, 1); err == nil {
		t.Error("k>n accepted")
	}
}

func TestKMeansPlusPlusSpreadsCenters(t *testing.T) {
	// On a well-separated mixture, k-means++ usually picks one seed
	// per component (that is its whole point); require that most of a
	// seed batch achieves full coverage, which block init essentially
	// never does on interleaved labels.
	g := mixture(t, 300, 10, 5)
	trueCenter := make([]float64, 10)
	fullCover := 0
	const seeds = 8
	for seed := uint64(0); seed < seeds; seed++ {
		cents, err := KMeansPlusPlus(g, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		covered := map[int]bool{}
		for j := 0; j < 5; j++ {
			best, bestD := -1, math.Inf(1)
			for c := 0; c < 5; c++ {
				g.Center(c, trueCenter)
				if dd := SqDist(cents[j*10:(j+1)*10], trueCenter); dd < bestD {
					best, bestD = c, dd
				}
			}
			covered[best] = true
		}
		if len(covered) == 5 {
			fullCover++
		}
	}
	if fullCover < seeds*3/4 {
		t.Errorf("k-means++ fully covered the mixture on %d of %d seeds", fullCover, seeds)
	}
}

func TestKMeansPlusPlusDuplicatePoints(t *testing.T) {
	// All-identical dataset: total distance mass is zero after the
	// first pick; the fallback must still produce k centroids.
	rows := make([][]float64, 6)
	for i := range rows {
		rows[i] = []float64{1, 2}
	}
	m, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	cents, err := KMeansPlusPlus(m, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 6 {
		t.Fatalf("got %d values", len(cents))
	}
	for i := 0; i < 6; i += 2 {
		if cents[i] != 1 || cents[i+1] != 2 {
			t.Error("degenerate centers wrong")
		}
	}
}

func TestEnginesAgreeWithLloydUnderKMeansPlusPlus(t *testing.T) {
	g := mixture(t, 240, 8, 4)
	init, err := KMeansPlusPlus(g, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LloydFrom(g, init, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []Level{Level1, Level2, Level3} {
		cfg := Config{Spec: machine.MustSpec(1), Level: level, K: 4, MaxIters: 30, Seed: 5, Init: InitKMeansPlusPlus}
		res, err := Run(cfg, g)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if res.Iters != ref.Iters {
			t.Errorf("%v: iters %d vs Lloyd %d", level, res.Iters, ref.Iters)
		}
		for i := range ref.Assign {
			if res.Assign[i] != ref.Assign[i] {
				t.Fatalf("%v: assignment diverges at %d", level, i)
			}
		}
	}
}

func TestLloydFromValidation(t *testing.T) {
	g := mixture(t, 10, 2, 2)
	if _, err := LloydFrom(g, []float64{1, 2, 3}, 5, 0); err == nil {
		t.Error("ragged initial matrix accepted")
	}
	if _, err := LloydFrom(g, nil, 5, 0); err == nil {
		t.Error("empty initial matrix accepted")
	}
}

// TestSqDistRowsMatchesSqDist pins the Level-3 stripe pass to SqDist
// bit for bit, NaN payloads included: widths 0..33 (the CPE stripes of
// the fine3 shapes in use are 0-2 wide), 0..9 rows, an out buffer that
// starts dirty, and values mixing NaNs of several payloads, ±Inf, ±0,
// subnormals and squares that overflow.
func TestSqDistRowsMatchesSqDist(t *testing.T) {
	specials := append([]float64{
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1040,
		math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff0000000000001),
	}, nearestSpecials...)
	rng := rand.New(rand.NewSource(23))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	for _, d := range []int{0, 1, 2, 3, 7, 8, 33} {
		for rows := 0; rows <= 9; rows++ {
			for trial := 0; trial < 20; trial++ {
				x := make([]float64, d)
				for i := range x {
					x[i] = draw()
				}
				m := make([]float64, rows*d+rng.Intn(3)) // rows may run past the last one
				for i := range m {
					m[i] = draw()
				}
				out := make([]float64, rows)
				for j := range out {
					out[j] = draw()
				}
				SqDistRows(x, m, out)
				for j := range out {
					want := SqDist(x, m[j*d:(j+1)*d])
					if math.Float64bits(out[j]) != math.Float64bits(want) {
						t.Fatalf("d=%d rows=%d row %d: %g (bits %016x), SqDist %g (bits %016x)",
							d, rows, j, out[j], math.Float64bits(out[j]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}
