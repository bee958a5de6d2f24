package dma

import (
	"math"
	"testing"

	"repro/internal/ldm"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vclock"
)

func TestNewValidates(t *testing.T) {
	spec := machine.MustSpec(1)
	spec.BW.DMA = 0
	if _, err := New(spec, nil); err == nil {
		t.Error("invalid spec: want error")
	}
}

func TestMustNewPanics(t *testing.T) {
	spec := machine.MustSpec(1)
	spec.BW.DMA = -1
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(spec, nil)
}

func TestGetCopiesAndAccounts(t *testing.T) {
	stats := trace.NewStats()
	e := MustNew(machine.MustSpec(1), stats)
	clock := vclock.New()
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	if err := e.Get(clock, dst, src); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], src[i])
		}
	}
	snap := stats.Snapshot()
	if snap.DMABytes != int64(4*ldm.ElemBytes) {
		t.Errorf("DMABytes = %d, want %d", snap.DMABytes, 4*ldm.ElemBytes)
	}
	if snap.DMATransfers != 1 {
		t.Errorf("DMATransfers = %d, want 1", snap.DMATransfers)
	}
	want := e.TransferTime(4)
	if math.Abs(clock.Now()-want) > 1e-18 {
		t.Errorf("clock = %g, want %g", clock.Now(), want)
	}
}

func TestPutCopiesBack(t *testing.T) {
	e := MustNew(machine.MustSpec(1), nil)
	clock := vclock.New()
	ldmBuf := []float64{9, 8}
	mem := make([]float64, 2)
	if err := e.Put(clock, mem, ldmBuf); err != nil {
		t.Fatal(err)
	}
	if mem[0] != 9 || mem[1] != 8 {
		t.Errorf("mem = %v", mem)
	}
	if clock.Now() <= 0 {
		t.Error("Put did not advance the clock")
	}
}

func TestTransferMismatch(t *testing.T) {
	e := MustNew(machine.MustSpec(1), nil)
	if err := e.Get(vclock.New(), make([]float64, 2), make([]float64, 3)); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestEmptyTransferIsFree(t *testing.T) {
	stats := trace.NewStats()
	e := MustNew(machine.MustSpec(1), stats)
	clock := vclock.New()
	if err := e.Get(clock, nil, nil); err != nil {
		t.Fatal(err)
	}
	if clock.Now() != 0 {
		t.Errorf("empty transfer advanced clock to %g", clock.Now())
	}
	if stats.Snapshot().DMATransfers != 0 {
		t.Error("empty transfer was counted")
	}
}

func TestTransferTimeModel(t *testing.T) {
	spec := machine.MustSpec(1)
	e := MustNew(spec, nil)
	if got := e.TransferTime(0); got != 0 {
		t.Errorf("TransferTime(0) = %g, want 0", got)
	}
	one := e.TransferTime(1)
	if one <= spec.BW.DMALatency {
		t.Errorf("TransferTime(1) = %g, should exceed the latency %g", one, spec.BW.DMALatency)
	}
	// Large transfers amortize latency: time per element decreases.
	big := e.TransferTime(1 << 20)
	wantBW := float64(1<<20*ldm.ElemBytes) / spec.BW.DMA
	if math.Abs(big-spec.BW.DMALatency-wantBW) > 1e-12 {
		t.Errorf("TransferTime(1M) = %g, want latency+%g", big, wantBW)
	}
}

func TestCharge(t *testing.T) {
	stats := trace.NewStats()
	e := MustNew(machine.MustSpec(1), stats)
	clock := vclock.New()
	e.Charge(clock, 100)
	if stats.Snapshot().DMABytes != int64(100*ldm.ElemBytes) {
		t.Errorf("DMABytes = %d", stats.Snapshot().DMABytes)
	}
	if clock.Now() != e.TransferTime(100) {
		t.Errorf("clock = %g, want %g", clock.Now(), e.TransferTime(100))
	}
	before := clock.Now()
	e.Charge(clock, 0)
	e.Charge(clock, -4)
	if clock.Now() != before {
		t.Error("zero/negative charge advanced the clock")
	}
}

func TestNilClockAccountsTrafficOnly(t *testing.T) {
	stats := trace.NewStats()
	e := MustNew(machine.MustSpec(1), stats)
	if err := e.Get(nil, make([]float64, 2), []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot().DMABytes == 0 {
		t.Error("traffic not recorded with nil clock")
	}
}
