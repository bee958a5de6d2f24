package fault

import (
	"math"
	"testing"
)

func TestInjectorDeterminism(t *testing.T) {
	p := Plan{
		Seed:        7,
		Crashes:     []Crash{{CG: 3, At: 0.5}, {CG: 3, At: 0.9}, {CG: 1, At: 0.1}},
		DMAFailRate: 0.3,
		MsgFailRate: 0.2,
	}
	a := MustInjector(p)
	b := MustInjector(p)
	if at, ok := a.CrashTime(3); !ok || at != 0.5 {
		t.Fatalf("earliest crash of CG 3 = %v,%v, want 0.5,true", at, ok)
	}
	if _, ok := a.CrashTime(2); ok {
		t.Fatal("CG 2 should not crash")
	}
	if got := a.CrashedCGs(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("CrashedCGs = %v", got)
	}
	hits := 0
	for i := 0; i < 2000; i++ {
		at := float64(i) * 1e-4
		if a.DMAFault(2, at, 4096, 0) != b.DMAFault(2, at, 4096, 0) {
			t.Fatal("DMA fault decisions differ between identical injectors")
		}
		if a.MsgFault(0, 1, uint64(i), at, 0) != b.MsgFault(0, 1, uint64(i), at, 0) {
			t.Fatal("msg fault decisions differ between identical injectors")
		}
		if a.DMAFault(2, at, 4096, 0) {
			hits++
		}
	}
	// The empirical rate of a 0.3 hash-driven coin over 2000 draws must
	// land near 0.3 — a broken hash collapses to 0 or 1.
	if hits < 400 || hits > 800 {
		t.Fatalf("2000 draws at rate 0.3 produced %d faults", hits)
	}
}

func TestInjectorSeedChangesDraws(t *testing.T) {
	a := MustInjector(Plan{Seed: 1, DMAFailRate: 0.5})
	b := MustInjector(Plan{Seed: 2, DMAFailRate: 0.5})
	same := 0
	for i := 0; i < 512; i++ {
		if a.DMAFault(0, float64(i), 64, 0) == b.DMAFault(0, float64(i), 64, 0) {
			same++
		}
	}
	if same == 512 {
		t.Fatal("different seeds produced identical fault streams")
	}
}

func TestLinkFactorWindowsCompose(t *testing.T) {
	inj := MustInjector(Plan{Links: []LinkDegrade{
		{FromCG: 0, ToCG: 1, From: 0.1, To: 0.2, Factor: 4},
		{FromCG: -1, ToCG: -1, From: 0.15, To: 0.3, Factor: 2},
	}})
	cases := []struct {
		src, dst int
		at, want float64
	}{
		{0, 1, 0.05, 1}, // before any window
		{0, 1, 0.12, 4}, // first window only
		{1, 0, 0.12, 4}, // order-insensitive
		{0, 1, 0.17, 8}, // both windows compose
		{2, 3, 0.17, 2}, // wildcard window only
		{0, 1, 0.25, 2}, // first window closed
		{0, 1, 0.35, 1}, // all windows closed
		{0, 1, 0.2, 2},  // half-open upper bound of first window
	}
	for _, c := range cases {
		if got := inj.LinkFactor(c.src, c.dst, c.at); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LinkFactor(%d,%d,%v) = %v, want %v", c.src, c.dst, c.at, got, c.want)
		}
	}
}

// TestComputeFactor: a CG computes at its whole-CG factor times its
// slowest CPE's; serve's shards read the whole-CG factor alone.
func TestComputeFactor(t *testing.T) {
	inj := MustInjector(Plan{Stragglers: []Straggler{
		{CG: 2, CPE: -1, Factor: 1.5},
		{CG: 2, CPE: 7, Factor: 2},
		{CG: 2, CPE: 9, Factor: 1.25},
		{CG: 4, CPE: 0, Factor: 3},
	}})
	for _, c := range []struct {
		cg             int
		whole, compute float64
	}{{2, 1.5, 3}, {4, 1, 3}, {0, 1, 1}} {
		if got := inj.CGFactor(c.cg); got != c.whole {
			t.Errorf("CG %d: whole-CG factor = %v, want %v", c.cg, got, c.whole)
		}
		if got := inj.ComputeFactor(c.cg); got != c.compute {
			t.Errorf("CG %d: compute factor = %v, want %v", c.cg, got, c.compute)
		}
	}
}

func TestDMARetryCountDeterministic(t *testing.T) {
	inj := MustInjector(Plan{Seed: 11, DMAFailRate: 0.25, MaxRetries: 3})
	r1 := inj.DMARetryCount(5, 0.125, 1024, 400)
	if r2 := inj.DMARetryCount(5, 0.125, 1024, 400); r1 != r2 {
		t.Fatalf("retry counts differ across identical calls: %d vs %d", r1, r2)
	}
	if r1 == 0 {
		t.Fatal("rate 0.25 over 400 transfers produced no retries")
	}
	if clean := MustInjector(Plan{Seed: 11}).DMARetryCount(5, 0.125, 1024, 400); clean != 0 {
		t.Fatalf("zero-rate plan produced %d retries", clean)
	}
	// A transfer that exhausts its budget is charged the budget.
	if all := MustInjector(Plan{DMAFailRate: 1, MaxRetries: 3}).DMARetryCount(5, 0.125, 1024, 10); all != 30 {
		t.Fatalf("rate-1 plan charged %d retries over 10 transfers, want the 3-retry budget each (30)", all)
	}
}

func TestBackoffDoubles(t *testing.T) {
	inj := MustInjector(Plan{RetryBackoff: 1e-6})
	if b := inj.Backoff(1); math.Abs(b-1e-6) > 1e-18 {
		t.Errorf("Backoff(1) = %v", b)
	}
	if b := inj.Backoff(3); math.Abs(b-4e-6) > 1e-18 {
		t.Errorf("Backoff(3) = %v", b)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{Crashes: []Crash{{CG: -1, At: 1}}},
		{Crashes: []Crash{{CG: 0, At: -1}}},
		{DMAFailRate: 1.5},
		{MsgFailRate: -0.1},
		{MaxRetries: -2},
		{Links: []LinkDegrade{{FromCG: 0, ToCG: 1, From: 0.5, To: 0.2, Factor: 2}}},
		{Links: []LinkDegrade{{FromCG: 0, ToCG: 1, From: 0, To: 1, Factor: 0.5}}},
		{Stragglers: []Straggler{{CG: 0, CPE: -1, Factor: 0.9}}},
		{Stragglers: []Straggler{{CG: 0, CPE: 64, Factor: 2}}},
		{Stragglers: []Straggler{{CG: 0, CPE: 99, Factor: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid plan accepted", i)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan rejected: %v", err)
	}
	if err := (Plan{Stragglers: []Straggler{{CG: 0, CPE: 63, Factor: 2}}}).Validate(); err != nil {
		t.Errorf("last CPE rejected: %v", err)
	}
}
