package dataset

import "testing"

func TestSliceView(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Slice(m, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 2 || v.D() != 2 {
		t.Fatalf("shape %dx%d", v.N(), v.D())
	}
	buf := make([]float64, 2)
	v.Sample(0, buf)
	if buf[0] != 3 || buf[1] != 4 {
		t.Errorf("Sample(0) = %v", buf)
	}
	v.Sample(1, buf)
	if buf[0] != 5 {
		t.Errorf("Sample(1) = %v", buf)
	}
	for _, c := range []struct{ lo, hi int }{{-1, 2}, {0, 5}, {2, 2}, {3, 1}} {
		if _, err := Slice(m, c.lo, c.hi); err == nil {
			t.Errorf("Slice(%d,%d) accepted", c.lo, c.hi)
		}
	}
}
