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
	s.Reset()
	if snap := s.Snapshot(); snap != (Snapshot{}) {
		t.Errorf("nil Stats snapshot = %+v, want zero", snap)
	}
}

func TestStatsReset(t *testing.T) {
	s := NewStats()
	s.AddDMA(5)
	s.AddFlops(7)
	s.Reset()
	if snap := s.Snapshot(); snap != (Snapshot{}) {
		t.Errorf("after Reset snapshot = %+v, want zero", snap)
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

func TestSnapshotSubAdd(t *testing.T) {
	a := Snapshot{DMABytes: 10, DMATransfers: 2, RegBytes: 4, RegTransfers: 1, NetBytes: 100, NetMessages: 3, Flops: 50}
	b := Snapshot{DMABytes: 4, DMATransfers: 1, RegBytes: 1, RegTransfers: 1, NetBytes: 40, NetMessages: 1, Flops: 20}
	d := a.Sub(b)
	if d.DMABytes != 6 || d.DMATransfers != 1 || d.RegBytes != 3 || d.NetBytes != 60 || d.Flops != 30 {
		t.Errorf("Sub = %+v", d)
	}
	if got := d.Add(b); got != a {
		t.Errorf("Add(Sub) = %+v, want %+v", got, a)
	}
}

// fillSnapshot populates every Snapshot field with a distinct value
// derived from base via reflection, so a field added to the struct but
// forgotten in Add or Sub fails the round-trip tests below. All values
// are exactly representable binary fractions, keeping float equality
// exact.
func fillSnapshot(t *testing.T, base int) Snapshot {
	t.Helper()
	var s Snapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(base + i))
		case reflect.Float64:
			f.SetFloat(float64(base) + float64(i)/2)
		default:
			t.Fatalf("Snapshot field %s has unhandled kind %v; extend fillSnapshot and the arithmetic tests",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return s
}

func TestSnapshotArithmeticEveryField(t *testing.T) {
	a, b := fillSnapshot(t, 1000), fillSnapshot(t, 3)
	d := a.Sub(b)
	dv, av, bv := reflect.ValueOf(d), reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		switch dv.Field(i).Kind() {
		case reflect.Int64:
			if got, want := dv.Field(i).Int(), av.Field(i).Int()-bv.Field(i).Int(); got != want {
				t.Errorf("Sub dropped field %s: got %d, want %d", name, got, want)
			}
		case reflect.Float64:
			//swlint:ignore float-eq -- exactly representable binary fractions subtract without rounding
			if got, want := dv.Field(i).Float(), av.Field(i).Float()-bv.Field(i).Float(); got != want {
				t.Errorf("Sub dropped field %s: got %g, want %g", name, got, want)
			}
		}
	}
	if got := a.Sub(b).Add(b); got != a {
		t.Errorf("Sub then Add round-trip = %+v, want %+v", got, a)
	}
	if got := a.Add(b).Sub(b); got != a {
		t.Errorf("Add then Sub round-trip = %+v, want %+v", got, a)
	}
	if got := a.Sub(Snapshot{}); got != a {
		t.Errorf("Sub of zero changed the snapshot: %+v", got)
	}
	if got := (Snapshot{}).Add(a); got != a {
		t.Errorf("Add to zero changed the snapshot: %+v", got)
	}
}

func TestHasRecoveryPartiallyPopulated(t *testing.T) {
	// Each recovery counter alone must flip HasRecovery.
	positives := []Snapshot{
		{DMARetries: 1},
		{NetRetries: 1},
		{Checkpoints: 1},
		{Replans: 1},
		{CheckpointSeconds: 0.5},
		{RestoreSeconds: 0.5},
		{ReplanSeconds: 0.5},
		{RedoSeconds: 0.5},
	}
	for _, s := range positives {
		if !s.HasRecovery() {
			t.Errorf("HasRecovery() = false for %+v", s)
		}
	}
	// Traffic-only snapshots are not recovery.
	negatives := []Snapshot{
		{},
		{DMABytes: 1 << 20, DMATransfers: 7, RegBytes: 9, NetBytes: 2, NetMessages: 1, Flops: 1e9},
	}
	for _, s := range negatives {
		if s.HasRecovery() {
			t.Errorf("HasRecovery() = true for fault-free snapshot %+v", s)
		}
	}
}

func TestRecoveryStringPartiallyPopulated(t *testing.T) {
	s := Snapshot{Checkpoints: 3, CheckpointBytes: 3 * 1024, CheckpointSeconds: 0.25, RedoSeconds: 1.5}
	str := s.RecoveryString()
	for _, tok := range []string{"ckpt=3(3.0KiB,0.250000s)", "redo=1.500000s", "restore=0.000000s", "replan=0(0.000000s)", "dma:0,net:0"} {
		if !strings.Contains(str, tok) {
			t.Errorf("RecoveryString() = %q, missing %q", str, tok)
		}
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
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
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
		if got := FormatCount(c.n); got != c.want {
			t.Errorf("FormatCount(%d) = %q, want %q", c.n, got, c.want)
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

func TestRecoveryCounters(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.AddDMARetry(2)
			s.AddNetRetry(1)
			s.AddCheckpoint(1024, 0.5)
			s.AddRestore(0.75)
			s.AddReplan(1.0)
			s.AddRedo(2.0)
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.DMARetries != 16 || snap.NetRetries != 8 {
		t.Errorf("retries = dma:%d net:%d, want 16/8", snap.DMARetries, snap.NetRetries)
	}
	if snap.Checkpoints != 8 || snap.CheckpointBytes != 8*1024 || snap.Replans != 8 {
		t.Errorf("ckpt=%d bytes=%d replans=%d", snap.Checkpoints, snap.CheckpointBytes, snap.Replans)
	}
	// Sums of exactly representable binary fractions stay exact, so the
	// accumulated virtual seconds compare exactly.
	want := Snapshot{
		DMARetries: 16, NetRetries: 8, Checkpoints: 8, CheckpointBytes: 8192, Replans: 8,
		CheckpointSeconds: 4, RestoreSeconds: 8 * 0.75, ReplanSeconds: 8, RedoSeconds: 16,
	}
	if snap != want {
		t.Errorf("snapshot = %+v, want %+v", snap, want)
	}
	if !snap.HasRecovery() {
		t.Error("HasRecovery() = false with recovery counters set")
	}
	if (Snapshot{NetBytes: 5}).HasRecovery() {
		t.Error("HasRecovery() = true on a fault-free snapshot")
	}
	if got := snap.Sub(snap); got.HasRecovery() {
		t.Errorf("self-difference keeps recovery counters: %+v", got)
	}
	if got := snap.Add(snap); got.DMARetries != 32 || got.RedoSeconds != 32 {
		t.Errorf("Add did not fold recovery counters: %+v", got)
	}
	str := snap.RecoveryString()
	for _, tok := range []string{"ckpt=8", "restore=6", "replan=8", "dma:16", "net:8"} {
		if !strings.Contains(str, tok) {
			t.Errorf("RecoveryString() = %q, missing %q", str, tok)
		}
	}
	s.Reset()
	if s.Snapshot().HasRecovery() {
		t.Error("Reset left recovery counters set")
	}
}
