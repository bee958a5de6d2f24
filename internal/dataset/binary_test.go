package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	g, err := NewGaussianMixture("bin", 50, 7, 3, 0.2, 1.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	wantSize := 16 + 50*7*8
	if buf.Len() != wantSize {
		t.Fatalf("binary size %d, want %d", buf.Len(), wantSize)
	}
	m, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 50 || m.D() != 7 {
		t.Fatalf("shape %dx%d", m.N(), m.D())
	}
	orig := make([]float64, 7)
	for i := 0; i < 50; i++ {
		g.Sample(i, orig)
		for u := range orig {
			if m.Row(i)[u] != orig[u] {
				t.Fatalf("row %d dim %d: %g vs %g (binary must be exact)", i, u, m.Row(i)[u], orig[u])
			}
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("short")); err == nil {
		t.Error("truncated header accepted")
	}
	bad := bytes.NewBuffer([]byte{9, 9, 9, 9, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0})
	if _, err := ReadBinary(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	// Valid header, missing payload.
	var buf bytes.Buffer
	g, _ := NewGaussianMixture("bin", 4, 2, 2, 0.1, 1, 1)
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-8])
	if _, err := ReadBinary(trunc); err == nil {
		t.Error("truncated payload accepted")
	}
	// Wrong version.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[4] = 99
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
		t.Error("wrong version accepted")
	}
	// Non-finite values, named by element.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad, err := FromRows([][]float64{{1, 2}, {3, v}})
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteBinary(&b, bad); err != nil {
			t.Fatal(err)
		}
		_, err = ReadBinary(&b)
		if err == nil || !strings.Contains(err.Error(), "element 3") {
			t.Errorf("value %g: error %v, want one naming element 3", v, err)
		}
	}
}

// TestReadBinaryBareHeader: a header alone must not size an allocation.
// Whatever shape it claims, it is rejected as a short payload after at
// most one 64 KiB read buffer was allocated.
func TestReadBinaryBareHeader(t *testing.T) {
	for _, shape := range [][2]uint32{{1 << 31, 1 << 28}, {1 << 12, 1 << 12}} {
		var hdr bytes.Buffer
		_ = binary.Write(&hdr, binary.LittleEndian, []uint32{matrixMagic, matrixVersion, shape[0], shape[1]})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(hdr.Bytes()))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%dx%d header without payload accepted", shape[0], shape[1])
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%dx%d header without payload allocated %d bytes, want under 1 MB", shape[0], shape[1], got)
		}
	}
}
