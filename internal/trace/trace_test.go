package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestStatsAccumulate(t *testing.T) {
	s := NewStats()
	s.AddDMA(100)
	s.AddDMA(50)
	s.AddReg(8)
	s.AddNet(1000)
	s.AddNet(24)
	s.AddFlops(999)
	snap := s.Snapshot()
	if snap.DMABytes != 150 || snap.DMATransfers != 2 {
		t.Errorf("DMA = %d/%d, want 150/2", snap.DMABytes, snap.DMATransfers)
	}
	if snap.RegBytes != 8 || snap.RegTransfers != 1 {
		t.Errorf("Reg = %d/%d, want 8/1", snap.RegBytes, snap.RegTransfers)
	}
	if snap.NetBytes != 1024 || snap.NetMessages != 2 {
		t.Errorf("Net = %d/%d, want 1024/2", snap.NetBytes, snap.NetMessages)
	}
	if snap.Flops != 999 {
		t.Errorf("Flops = %d, want 999", snap.Flops)
	}
}

func TestNilStatsIsSafe(t *testing.T) {
	var s *Stats
	s.AddDMA(1)
	s.AddReg(1)
	s.AddNet(1)
	s.AddFlops(1)
	s.AddNetMessages(2, 3)
	if snap := s.Snapshot(); snap != (Snapshot{}) {
		t.Errorf("nil Stats snapshot = %+v, want zero", snap)
	}
}

func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	const workers = 16
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.AddDMA(1)
				s.AddReg(2)
				s.AddNet(3)
				s.AddFlops(4)
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.DMABytes != workers*per {
		t.Errorf("DMABytes = %d, want %d", snap.DMABytes, workers*per)
	}
	if snap.RegBytes != 2*workers*per {
		t.Errorf("RegBytes = %d, want %d", snap.RegBytes, 2*workers*per)
	}
	if snap.NetMessages != workers*per {
		t.Errorf("NetMessages = %d, want %d", snap.NetMessages, workers*per)
	}
	if snap.Flops != 4*workers*per {
		t.Errorf("Flops = %d, want %d", snap.Flops, 4*workers*per)
	}
}

// fillSnapshot populates every Snapshot field with a distinct value
// derived from base via reflection, so a field added to the struct but
// forgotten in Sub fails the test below.
func fillSnapshot(t *testing.T, base int) Snapshot {
	t.Helper()
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("Snapshot field %s has unhandled kind %v; extend fillSnapshot and the arithmetic test",
				v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(int64(base + i))
	}
	return s
}

func TestSnapshotArithmeticEveryField(t *testing.T) {
	a, b := fillSnapshot(t, 1000), fillSnapshot(t, 3)
	dv, av, bv := reflect.ValueOf(a.Sub(b)), reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < dv.NumField(); i++ {
		if got, want := dv.Field(i).Int(), av.Field(i).Int()-bv.Field(i).Int(); got != want {
			t.Errorf("Sub dropped field %s: got %d, want %d", dv.Type().Field(i).Name, got, want)
		}
	}
	if got := a.Sub(Snapshot{}); got != a {
		t.Errorf("Sub of zero changed the snapshot: %+v", got)
	}
	if got := a.Sub(a); got != (Snapshot{}) {
		t.Errorf("self-difference is not zero: %+v", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{1024, "1.0KiB"},
		{1536, "1.5KiB"},
		{1 << 20, "1.0MiB"},
		{3 << 30, "3.0GiB"},
		{1 << 40, "1.0TiB"},
	}
	for _, c := range cases {
		if got := formatBytes(c.n); got != c.want {
			t.Errorf("formatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1.00k"},
		{1500000, "1.50M"},
		{3000000000, "3.00G"},
		{1500000000000000, "1.50P"},
	}
	for _, c := range cases {
		if got := formatCount(c.n); got != c.want {
			t.Errorf("formatCount(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{DMABytes: 2048, DMATransfers: 2, Flops: 1000}
	str := s.String()
	for _, want := range []string{"dma=2.0KiB(2)", "flops=1.00k"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}
