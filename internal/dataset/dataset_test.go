package dataset

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixValidation(t *testing.T) {
	for _, c := range []struct{ n, d int }{{0, 1}, {1, 0}, {-1, 5}} {
		if _, err := NewMatrix(c.n, c.d); err == nil {
			t.Errorf("NewMatrix(%d,%d): want error", c.n, c.d)
		}
	}
}

func TestMatrixRoundTrip(t *testing.T) {
	m, err := NewMatrix(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetRow(1, []float64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRow(1, []float64{5}); err == nil {
		t.Error("short row accepted")
	}
	buf := make([]float64, 2)
	m.Sample(1, buf)
	if buf[0] != 5 || buf[1] != 6 {
		t.Errorf("Sample(1) = %v", buf)
	}
	if r := m.Row(1); r[0] != 5 || r[1] != 6 {
		t.Errorf("Row(1) = %v", r)
	}
	if m.N() != 3 || m.D() != 2 {
		t.Errorf("shape %dx%d", m.N(), m.D())
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.Row(1)[1] != 4 {
		t.Error("row content lost")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FromRows([][]float64{{}}); err == nil {
		t.Error("zero-dim rows accepted")
	}
}

func TestGaussianMixtureValidation(t *testing.T) {
	cases := []struct {
		n, d, k int
		spread  float64
		sep     float64
	}{
		{0, 1, 1, 0.1, 1}, {1, 0, 1, 0.1, 1}, {4, 2, 0, 0.1, 1},
		{4, 2, 5, 0.1, 1}, {4, 2, 2, -1, 1}, {4, 2, 2, 0.1, 0},
	}
	for _, c := range cases {
		if _, err := NewGaussianMixture("x", c.n, c.d, c.k, c.spread, c.sep, 1); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func TestGaussianMixtureDeterminism(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		g, err := NewGaussianMixture("t", 100, 16, 4, 0.2, 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		a := make([]float64, 16)
		b := make([]float64, 16)
		for _, i := range []int{0, 7, 99} {
			g.Sample(i, a)
			g.Sample(i, b)
			for u := range a {
				if a[u] != b[u] {
					t.Fatalf("sample %d not deterministic at dim %d", i, u)
				}
			}
		}
		// Different seeds produce different data.
		g2, _ := NewGaussianMixture("t", 100, 16, 4, 0.2, 2, 43)
		g2.Sample(0, b)
		g.Sample(0, a)
		same := true
		for u := range a {
			if a[u] != b[u] {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical samples")
		}
	})
}

func TestGaussianMixtureStructure(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		// Samples must cluster around their component centres: the
		// distance to the own centre must be far below the distance to any
		// other centre.
		const d = 32
		g, err := NewGaussianMixture("t", 64, d, 4, 0.1, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		if g.Components() != 4 || g.Name() != "t" {
			t.Fatalf("metadata wrong")
		}
		centers := make([][]float64, 4)
		for c := range centers {
			centers[c] = make([]float64, d)
			g.Center(c, centers[c])
		}
		buf := make([]float64, d)
		for i := 0; i < 64; i++ {
			g.Sample(i, buf)
			own := g.TrueLabel(i)
			dOwn := dist2(buf, centers[own])
			for c := range centers {
				if c == own {
					continue
				}
				if dOwn >= dist2(buf, centers[c]) {
					t.Fatalf("sample %d closer to foreign centre %d than own %d", i, c, own)
				}
			}
		}
	})
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		diff := a[i] - b[i]
		s += diff * diff
	}
	return s
}

func TestGaussianMixtureConcurrentSample(t *testing.T) {
	g, _ := NewGaussianMixture("t", 1000, 8, 4, 0.2, 2, 1)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			buf := make([]float64, 8)
			for i := 0; i < 1000; i++ {
				g.Sample(i, buf)
			}
			done <- true
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

func TestPublishedShapes(t *testing.T) {
	k, err := Kegg(1)
	if err != nil || k.N() != 65554 || k.D() != 28 {
		t.Errorf("Kegg = %dx%d (%v)", k.N(), k.D(), err)
	}
	r, err := Road(1)
	if err != nil || r.N() != 434874 || r.D() != 4 {
		t.Errorf("Road = %dx%d (%v)", r.N(), r.D(), err)
	}
	c, err := Census(1)
	if err != nil || c.N() != 2458285 || c.D() != 68 {
		t.Errorf("Census = %dx%d (%v)", c.N(), c.D(), err)
	}
	im, err := ImgNet(196608, 1)
	if err != nil || im.N() != 1265723 || im.D() != 196608 {
		t.Errorf("ImgNet = %dx%d (%v)", im.N(), im.D(), err)
	}
}

func TestScaledShapes(t *testing.T) {
	c, err := Census(1000)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 2458 {
		t.Errorf("scaled Census n = %d, want 2458", c.N())
	}
	if _, err := Census(0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := ImgNet(0, 1); err == nil {
		t.Error("ImgNet d=0 accepted")
	}
	// Extreme scale-down clamps components to n.
	tiny, err := Kegg(65554)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Components() > tiny.N() {
		t.Error("components exceed n after scaling")
	}
}

func TestMaterialize(t *testing.T) {
	g, _ := NewGaussianMixture("t", 10, 3, 2, 0.1, 1, 9)
	m, err := Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 3)
	g.Sample(4, buf)
	for u := range buf {
		if m.Row(4)[u] != buf[u] {
			t.Fatal("materialized data differs from source")
		}
	}
}

func TestLandCoverValidation(t *testing.T) {
	for _, c := range []struct{ w, h, d int }{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := NewLandCover(c.w, c.h, c.d, 1); err == nil {
			t.Errorf("NewLandCover(%d,%d,%d): want error", c.w, c.h, c.d)
		}
	}
}

func TestLandCoverFields(t *testing.T) {
	lc, err := NewLandCover(40, 30, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if lc.N() != 1200 || lc.D() != 12 || lc.width != 40 || lc.height != 30 {
		t.Fatalf("shape wrong: n=%d d=%d", lc.N(), lc.D())
	}
	if lc.Classes() != 7 {
		t.Errorf("Classes = %d, want 7", lc.Classes())
	}
	// Class field must use several classes and be spatially coherent:
	// most horizontal neighbours share a class.
	counts := make([]int, 7)
	same, total := 0, 0
	for y := 0; y < 30; y++ {
		for x := 0; x < 40; x++ {
			c := lc.TrueClass(x, y)
			if c < 0 || c >= 7 {
				t.Fatalf("class out of range: %d", c)
			}
			counts[c]++
			if x > 0 {
				total++
				if lc.TrueClass(x-1, y) == c {
					same++
				}
			}
		}
	}
	nonEmpty := 0
	for _, c := range counts {
		if c > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Errorf("only %d classes present, want >= 3", nonEmpty)
	}
	if ratio := float64(same) / float64(total); ratio < 0.8 {
		t.Errorf("spatial coherence %.2f, want >= 0.8", ratio)
	}
}

func TestLandCoverSamplesSeparable(t *testing.T) {
	lc, err := NewLandCover(16, 16, 24, 11)
	if err != nil {
		t.Fatal(err)
	}
	sigs := make([][]float64, 7)
	for c := range sigs {
		sigs[c] = make([]float64, 24)
		lc.Signature(c, sigs[c])
	}
	buf := make([]float64, 24)
	for i := 0; i < lc.N(); i++ {
		lc.Sample(i, buf)
		own := lc.TrueLabel(i)
		dOwn := dist2(buf, sigs[own])
		for c := range sigs {
			if c != own && dist2(buf, sigs[c]) <= dOwn {
				t.Fatalf("sample %d not separable (class %d vs %d)", i, own, c)
			}
		}
	}
}

func TestLandCoverPPM(t *testing.T) {
	lc, _ := NewLandCover(4, 3, 8, 1)
	var buf bytes.Buffer
	if err := lc.WritePPM(&buf, lc.TrueClassMap()); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P6\n4 3\n255\n")) {
		t.Errorf("PPM header wrong: %q", out[:12])
	}
	if want := len("P6\n4 3\n255\n") + 4*3*3; len(out) != want {
		t.Errorf("PPM size %d, want %d", len(out), want)
	}
	if err := lc.WritePPM(&buf, make([]int, 5)); err == nil {
		t.Error("wrong-size class map accepted")
	}
	// Out-of-range classes render as unknown instead of failing.
	if err := lc.WritePPM(&bytes.Buffer{}, func() []int {
		m := lc.TrueClassMap()
		m[0] = 99
		return m
	}()); err != nil {
		t.Errorf("out-of-range class: %v", err)
	}
}

func TestHashHelpersProperty(t *testing.T) {
	f := func(x uint64) bool {
		u := unitFloat(splitmix64(x))
		s := symFloat(splitmix64(x + 1))
		g := gauss(splitmix64(x+2), splitmix64(x+3))
		return u >= 0 && u < 1 && s >= -1 && s < 1 && !math.IsNaN(g) && !math.IsInf(g, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGaussIsRoughlyNormal(t *testing.T) {
	// Mean ~ 0, variance ~ 1 over many deviates.
	n := 20000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		h := splitmix64(uint64(i) * 7919)
		g := gauss(h, splitmix64(h))
		sum += g
		sum2 += g * g
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("variance = %g, want ~1", variance)
	}
}
