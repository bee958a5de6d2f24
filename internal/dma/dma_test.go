package dma

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
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

func TestWithFaultsRetriesAreDeterministic(t *testing.T) {
	spec := machine.MustSpec(1)
	run := func() float64 {
		e := MustNew(spec, nil).WithFaults(
			fault.MustInjector(fault.Plan{Seed: 3, DMAFailRate: 0.4, MaxRetries: 8}), 0)
		clock := vclock.New()
		buf := make([]float64, 64)
		src := make([]float64, 64)
		for i := 0; i < 200; i++ {
			if err := e.Get(clock, buf, src); err != nil {
				t.Fatal(err)
			}
		}
		return clock.Now()
	}
	t1, t2 := run(), run()
	if math.Float64bits(t1) != math.Float64bits(t2) {
		t.Fatalf("identical faulty runs diverged: %.17g vs %.17g", t1, t2)
	}
	cleanClock := vclock.New()
	e := MustNew(spec, nil)
	for i := 0; i < 200; i++ {
		if err := e.Get(cleanClock, make([]float64, 64), make([]float64, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if t1 <= cleanClock.Now() {
		t.Errorf("faulty run %.12g not slower than clean run %.12g", t1, cleanClock.Now())
	}
}

func TestWithFaultsPermanentFailure(t *testing.T) {
	e := MustNew(machine.MustSpec(1), trace.NewStats()).WithFaults(
		fault.MustInjector(fault.Plan{DMAFailRate: 1, MaxRetries: 2}), 0)
	err := e.Put(vclock.New(), make([]float64, 8), make([]float64, 8))
	if !errors.Is(err, fault.ErrDMAFailed) {
		t.Fatalf("rate-1 transfer error = %v, want fault.ErrDMAFailed", err)
	}
}

func TestWithFaultsLeavesReceiverClean(t *testing.T) {
	e := MustNew(machine.MustSpec(1), nil)
	_ = e.WithFaults(fault.MustInjector(fault.Plan{DMAFailRate: 1}), 0)
	if err := e.Get(vclock.New(), make([]float64, 4), make([]float64, 4)); err != nil {
		t.Fatalf("original engine became faulty: %v", err)
	}
}
