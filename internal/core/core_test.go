package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/machine"
)

func mixture(t *testing.T, n, d, comps int) *dataset.GaussianMixture {
	t.Helper()
	g, err := dataset.NewGaussianMixture("test", n, d, comps, 0.15, 2.0, 0xBEEF)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		Level1:   "level1(n-partition)",
		Level2:   "level2(nk-partition)",
		Level3:   "level3(nkd-partition)",
		Level(9): "level(9)",
	} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Spec: machine.MustSpec(1), Level: Level1, K: 4}.withDefaults()
	if err := good.validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"nil spec", func(c *Config) { c.Spec = nil }},
		{"bad level", func(c *Config) { c.Level = 0 }},
		{"bad level high", func(c *Config) { c.Level = 4 }},
		{"k=0", func(c *Config) { c.K = 0 }},
		{"negative tolerance", func(c *Config) { c.Tolerance = -1 }},
		{"zero iters", func(c *Config) { c.MaxIters = -1 }},
		{"zero stride", func(c *Config) { c.SampleStride = -1 }},
		{"zero batch", func(c *Config) { c.BatchSamples = -1 }},
	}
	for _, m := range mutations {
		c := good
		m.mut(&c)
		if err := c.validate(); err == nil {
			t.Errorf("%s: want error", m.name)
		}
	}
}

func TestShareRange(t *testing.T) {
	// Exact cover, no overlap, balanced within 1.
	for _, c := range []struct{ n, p int }{{10, 3}, {7, 7}, {5, 8}, {100, 1}, {0, 4}} {
		covered := 0
		prevHi := 0
		for r := 0; r < c.p; r++ {
			lo, hi := shareRange(c.n, c.p, r)
			if lo != prevHi {
				t.Errorf("n=%d p=%d r=%d: lo=%d, want %d", c.n, c.p, r, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("n=%d p=%d r=%d: negative range", c.n, c.p, r)
			}
			if hi-lo > c.n/c.p+1 {
				t.Errorf("n=%d p=%d r=%d: unbalanced share %d", c.n, c.p, r, hi-lo)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n {
			t.Errorf("n=%d p=%d: covered %d", c.n, c.p, covered)
		}
	}
}

func TestShareRangeProperty(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw)
		p := int(pRaw)%64 + 1
		total := 0
		for r := 0; r < p; r++ {
			lo, hi := shareRange(n, p, r)
			if hi < lo {
				return false
			}
			total += hi - lo
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInitialCentroids(t *testing.T) {
	g := mixture(t, 100, 4, 4)
	c1, err := InitialCentroids(g, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != 8*4 {
		t.Fatalf("len = %d", len(c1))
	}
	// Deterministic.
	c2, _ := InitialCentroids(g, 8, 7)
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("initialization not deterministic")
		}
	}
	// Seed changes selection.
	c3, _ := InitialCentroids(g, 8, 8)
	same := true
	for i := range c1 {
		if c1[i] != c3[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds selected identical centroids")
	}
	// Distinct rows (samples come from distinct blocks).
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			if equalRows(c1[a*4:(a+1)*4], c1[b*4:(b+1)*4]) {
				t.Errorf("initial centroids %d and %d identical", a, b)
			}
		}
	}
	if _, err := InitialCentroids(g, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := InitialCentroids(g, 101, 1); err == nil {
		t.Error("k>n accepted")
	}
}

func equalRows(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestArgminDistanceTieBreak(t *testing.T) {
	cents := []float64{1, 0, 1, 0, 5, 5} // centroids 0 and 1 identical
	j, dist := argminDistance([]float64{0, 0}, cents, 2)
	if j != 0 {
		t.Errorf("tie broke to %d, want 0", j)
	}
	if dist != 1 {
		t.Errorf("dist = %g, want 1", dist)
	}
}

func TestApplyUpdate(t *testing.T) {
	cents := []float64{0, 0, 9, 9}
	sums := []float64{4, 8, 0, 0}
	counts := []int64{2, 0}
	mv := ApplyUpdate(cents, sums, counts, 2)
	if cents[0] != 2 || cents[1] != 4 {
		t.Errorf("centroid 0 = %v", cents[:2])
	}
	// Empty cluster keeps its previous centroid.
	if cents[2] != 9 || cents[3] != 9 {
		t.Errorf("empty centroid moved: %v", cents[2:])
	}
	if mv != 4+16 {
		t.Errorf("movement = %g, want 20", mv)
	}
}

func TestLloydConverges(t *testing.T) {
	g := mixture(t, 200, 6, 4)
	res, err := Lloyd(g, 4, 50, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("Lloyd did not converge on separable data")
	}
	if res.Iters < 1 || res.Iters > 50 {
		t.Errorf("Iters = %d", res.Iters)
	}
	// Every sample assigned; clusters recover the mixture (labels may
	// permute, so check purity: samples with the same true label share
	// an assignment).
	byLabel := map[int]int{}
	for i, a := range res.Assign {
		if a < 0 || a >= 4 {
			t.Fatalf("sample %d unassigned: %d", i, a)
		}
		lbl := g.TrueLabel(i)
		if prev, ok := byLabel[lbl]; ok {
			if prev != a {
				t.Fatalf("label %d split across clusters %d and %d", lbl, prev, a)
			}
		} else {
			byLabel[lbl] = a
		}
	}
}

func TestLloydValidation(t *testing.T) {
	g := mixture(t, 10, 2, 2)
	if _, err := Lloyd(g, 2, 0, 0, 1); err == nil {
		t.Error("maxIters=0 accepted")
	}
	if _, err := Lloyd(g, 2, 5, -1, 1); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := Lloyd(g, 0, 5, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestLloydObjectiveNonIncreasing(t *testing.T) {
	// Property of Lloyd's algorithm: the objective never increases.
	g := mixture(t, 150, 5, 3)
	cents, _ := InitialCentroids(g, 3, 3)
	n, d := g.N(), g.D()
	buf := make([]float64, d)
	prev := math.Inf(1)
	sums := make([]float64, 3*d)
	counts := make([]int64, 3)
	for iter := 0; iter < 10; iter++ {
		obj := 0.0
		for i := range sums {
			sums[i] = 0
		}
		for j := range counts {
			counts[j] = 0
		}
		for i := 0; i < n; i++ {
			g.Sample(i, buf)
			j, dist := argminDistance(buf, cents, d)
			obj += dist
			row := sums[j*d : (j+1)*d]
			for u := 0; u < d; u++ {
				row[u] += buf[u]
			}
			counts[j]++
		}
		if obj > prev+1e-9 {
			t.Fatalf("objective increased at iter %d: %g -> %g", iter, prev, obj)
		}
		prev = obj
		ApplyUpdate(cents, sums, counts, d)
	}
}
