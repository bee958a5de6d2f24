package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sameMatrix fails unless a and b have the same shape and bits.
func sameMatrix(t *testing.T, a, b *Matrix) {
	t.Helper()
	if a.N() != b.N() || a.D() != b.D() {
		t.Fatalf("shape %dx%d re-loaded as %dx%d", a.N(), a.D(), b.N(), b.D())
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			t.Fatalf("element %d: %x re-loaded as %x", i, math.Float64bits(a.data[i]), math.Float64bits(b.data[i]))
		}
	}
}

// finite fails if m holds a NaN or ±Inf.
func finite(t *testing.T, m *Matrix) {
	t.Helper()
	for i, v := range m.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("accepted non-finite element %d = %g", i, v)
		}
	}
}

// FuzzReadBinary drives the binary matrix loader with arbitrary bytes.
// No input may panic or allocate by the header's word alone, and
// whatever loads is finite and survives WriteBinary and ReadBinary
// bit for bit.
func FuzzReadBinary(f *testing.F) {
	m, err := FromRows([][]float64{{1.5, -2}, {0, math.Copysign(0, -1)}, {1e-308, 7}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	for _, cut := range []int{len(whole), len(whole) - 1, 24, 16, 8, 0} {
		f.Add(whole[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		finite(t, m)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			t.Fatal(err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-encoded matrix does not load: %v", err)
		}
		sameMatrix(t, m, again)
	})
}

// FuzzReadCSV drives the CSV loader with arbitrary text. No input may
// panic, and whatever loads is finite and survives WriteCSV and ReadCSV
// bit for bit.
func FuzzReadCSV(f *testing.F) {
	for _, seed := range []string{
		"1,2\n3,4\n",
		" 1 , 2 \n\n3,4",
		"-0,0\n1e-308,1.7976931348623157e308\n",
		"0x1p-2,5e-324\n",
		"1,NaN\n2,+Inf\n",
		"1,2\n3\n",
		"1,two\n",
		"1e400\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ReadCSV(strings.NewReader(text))
		if err != nil {
			return
		}
		finite(t, m)
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-encoded CSV does not load: %v", err)
		}
		sameMatrix(t, m, again)
	})
}
