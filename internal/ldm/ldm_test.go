package ldm

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(1024)
	if a.capacity != 1024 || a.used != 0 {
		t.Fatalf("fresh allocator: cap=%d used=%d", a.capacity, a.used)
	}
	if err := a.Alloc("sample", 512); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := a.AllocFloats("centroids", 64); err != nil { // 256 bytes
		t.Fatalf("AllocFloats: %v", err)
	}
	if a.used != 768 {
		t.Errorf("used = %d, want 768", a.used)
	}
	if len(a.buffers) != 2 || a.buffers["sample"] != 512 || a.buffers["centroids"] != 256 {
		t.Errorf("buffers = %v", a.buffers)
	}
}

func TestAllocatorCapacityError(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Alloc("a", 60); err != nil {
		t.Fatal(err)
	}
	err := a.Alloc("b", 50)
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("want CapacityError, got %v", err)
	}
	if ce.Requested != 50 || ce.Free != 40 || ce.Capacity != 100 {
		t.Errorf("CapacityError = %+v", ce)
	}
	if !strings.Contains(ce.Error(), `"b"`) {
		t.Errorf("error text %q should name the buffer", ce.Error())
	}
	// Failed allocation must not consume budget.
	if a.used != 60 {
		t.Errorf("used after failed alloc = %d, want 60", a.used)
	}
}

func TestAllocatorMisuse(t *testing.T) {
	a := NewAllocator(100)
	if err := a.Alloc("x", 0); err == nil {
		t.Error("Alloc size 0: want error")
	}
	if err := a.Alloc("x", -5); err == nil {
		t.Error("Alloc negative: want error")
	}
	if err := a.Alloc("x", 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Alloc("x", 10); err == nil {
		t.Error("double Alloc: want error")
	}
}

func TestNewAllocatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewAllocator(0) did not panic")
		}
	}()
	NewAllocator(0)
}

func TestElemsPerLDM(t *testing.T) {
	if got := ElemsPerLDM(machine.LDMBytes); got != 16384 {
		t.Errorf("ElemsPerLDM(64KiB) = %d, want 16384", got)
	}
}

// TestLevel1FigureThreeEnvelopes verifies that constraint C1 with
// 4-byte elements reproduces the exact k ranges of Figure 3: the
// largest k shown per dataset passes and the next doubling fails.
func TestLevel1FigureThreeEnvelopes(t *testing.T) {
	spec := machine.MustSpec(1)
	cases := []struct {
		name     string
		d        int
		maxOK    int
		firstBad int
	}{
		{"US Census 1990", 68, 64, 128},
		{"Road Network", 4, 1024, 2048},
		{"Kegg Network", 28, 256, 512},
	}
	for _, c := range cases {
		if err := CheckLevel1(spec, c.maxOK, c.d); err != nil {
			t.Errorf("%s: CheckLevel1(k=%d,d=%d) = %v, want ok", c.name, c.maxOK, c.d, err)
		}
		err := CheckLevel1(spec, c.firstBad, c.d)
		var ce *ConstraintError
		if !errors.As(err, &ce) {
			t.Errorf("%s: CheckLevel1(k=%d,d=%d) = %v, want ConstraintError", c.name, c.firstBad, c.d, err)
			continue
		}
		if ce.Constraint != "C1" {
			t.Errorf("%s: violated %s, want C1", c.name, ce.Constraint)
		}
	}
}

func TestLevel1BoundaryConstraints(t *testing.T) {
	spec := machine.MustSpec(1)
	// C2: 3d+1 <= 16384 -> d <= 5461.
	if err := CheckLevel1(spec, 1, 5461); err != nil {
		t.Errorf("d=5461: %v, want ok", err)
	}
	err := CheckLevel1(spec, 1, 5462)
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Constraint != "C2" {
		t.Errorf("d=5462: got %v, want C2 violation", err)
	}
	// C3: 3k+1 <= 16384 -> k <= 5461.
	err = CheckLevel1(spec, 5462, 1)
	if !errors.As(err, &ce) || (ce.Constraint != "C3" && ce.Constraint != "C1") {
		t.Errorf("k=5462,d=1: got %v, want C3/C1 violation", err)
	}
}

func TestLevel1RejectsBadShape(t *testing.T) {
	spec := machine.MustSpec(1)
	if err := CheckLevel1(spec, 0, 10); err == nil {
		t.Error("k=0: want error")
	}
	if err := CheckLevel1(spec, 10, 0); err == nil {
		t.Error("d=0: want error")
	}
}

// TestLevel2FigureSevenLimit verifies the d ≤ 4096 stream-residency
// envelope that Figure 7 reports for Level 2.
func TestLevel2FigureSevenLimit(t *testing.T) {
	spec := machine.MustSpec(128)
	if err := CheckLevel2(spec, 2000, 4096, 64); err != nil {
		t.Errorf("k=2000,d=4096: %v, want ok (Figures 7-9 run this)", err)
	}
	err := CheckLevel2(spec, 2000, 4608, 64)
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Constraint != "C'2" {
		t.Errorf("k=2000,d=4608: got %v, want C'2 violation", err)
	}
}

// TestLevel2FigureFourAndEightEnvelopes: Level 2 must admit the
// largest k values the paper runs (k=100,000 on Road Network in
// Figure 4 and k=131,072 at d=4096 in Figure 8).
func TestLevel2FigureFourAndEightEnvelopes(t *testing.T) {
	spec := machine.MustSpec(256)
	if err := CheckLevel2(spec, 100000, 4, 64); err != nil {
		t.Errorf("Road k=100000: %v, want ok", err)
	}
	if err := CheckLevel2(spec, 131072, 4096, 64); err != nil {
		t.Errorf("Fig8 k=131072,d=4096: %v, want ok", err)
	}
	if err := CheckLevel2(spec, 8192, 28, 64); err != nil {
		t.Errorf("Kegg k=8192: %v, want ok", err)
	}
}

func TestLevel2DRAMConstraint(t *testing.T) {
	spec := machine.MustSpec(1)
	spec.DRAMBytesPerCG = 1 << 20 // 1 MiB: tiny DRAM
	err := CheckLevel2(spec, 10000, 100, 64)
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Constraint != "C'1" {
		t.Errorf("got %v, want C'1 DRAM violation", err)
	}
}

func TestLevel2MgroupRange(t *testing.T) {
	spec := machine.MustSpec(1)
	for _, m := range []int{0, -1, 65, 1000} {
		if err := CheckLevel2(spec, 16, 4, m); err == nil {
			t.Errorf("mgroup=%d: want error", m)
		}
	}
	if err := CheckLevel2(spec, 16, 4, 1); err != nil {
		t.Errorf("mgroup=1: %v, want ok", err)
	}
}

// TestLevel3HeadlineShapes: the paper's headline and capability shapes
// must be feasible at Level 3.
func TestLevel3HeadlineShapes(t *testing.T) {
	spec := machine.MustSpec(4096) // 16384 CGs
	// Figure 5/6 headline: k=2000, d=196608 with a CG group of 1024 CGs.
	if err := CheckLevel3(spec, 2000, 196608, 1024); err != nil {
		t.Errorf("headline k=2000,d=196608,m'=1024: %v, want ok", err)
	}
	// Table I capability: k=160,000, d=196,608 needs a very large group;
	// feasible on a big enough deployment.
	big := machine.MustSpec(40960)
	if err := CheckLevel3(big, 160000, 196608, 131072); err != nil {
		t.Errorf("capability k=160000,d=196608: %v, want ok", err)
	}
}

func TestLevel3DimensionLimit(t *testing.T) {
	spec := machine.MustSpec(4096)
	// C"2: 3d+1 <= 64*16384 = 1048576 -> d <= 349525; the per-CPE
	// stripe rounds d up to a multiple of 64, so the largest exactly
	// feasible d is 64*5461 = 349504.
	if err := CheckLevel3(spec, 1, 349504, 1024); err != nil {
		t.Errorf("d=349504: %v, want ok", err)
	}
	err := CheckLevel3(spec, 1, 349526, 1024)
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Constraint != `C"2` {
		t.Errorf("d=349526: got %v, want C\"2 violation", err)
	}
}

func TestLevel3PerCPEStripe(t *testing.T) {
	spec := machine.MustSpec(4096)
	// At d=196608 each CPE holds a 3072-element stripe; with a small
	// m'group the per-CPE centroid share overflows the LDM.
	err := CheckLevel3(spec, 2000, 196608, 700)
	var ce *ConstraintError
	if !errors.As(err, &ce) || ce.Constraint != `C"1` {
		t.Errorf("m'group=700: got %v, want C\"1 per-CPE violation", err)
	}
	if err := CheckLevel3(spec, 2000, 196608, 1000); err != nil {
		t.Errorf("m'group=1000: %v, want ok", err)
	}
}

func TestLevel3GroupRange(t *testing.T) {
	spec := machine.MustSpec(2) // 8 CGs
	if err := CheckLevel3(spec, 4, 64, 0); err == nil {
		t.Error("m'group=0: want error")
	}
	if err := CheckLevel3(spec, 4, 64, 9); err == nil {
		t.Error("m'group>CGs: want error")
	}
	if err := CheckLevel3(spec, 4, 64, 8); err != nil {
		t.Errorf("m'group=8: %v, want ok", err)
	}
}

func TestMaxKLevel3(t *testing.T) {
	spec := machine.MustSpec(4096)
	d := 196608
	mg := 1024
	k := MaxKLevel3(spec, d, mg)
	if k <= 0 {
		t.Fatalf("MaxKLevel3 = %d, want positive", k)
	}
	if err := CheckLevel3(spec, k, d, mg); err != nil {
		t.Errorf("k=%d should be feasible: %v", k, err)
	}
	if err := CheckLevel3(spec, k+1, d, mg); err == nil {
		t.Errorf("k=%d should be infeasible", k+1)
	}
}

func TestMaxKLevel3Monotone(t *testing.T) {
	// Property: more CGs per group never reduces the feasible k.
	spec := machine.MustSpec(4096)
	f := func(mgRaw uint8) bool {
		mg := int(mgRaw)%1000 + 8
		k1 := MaxKLevel3(spec, 12288, mg)
		k2 := MaxKLevel3(spec, 12288, mg*2)
		return k2 >= k1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLevelCapabilityOrdering: the central claim of the paper's
// multi-level design — every level strictly extends the feasible
// region of the previous one on representative shapes.
func TestLevelCapabilityOrdering(t *testing.T) {
	spec := machine.MustSpec(128)
	// Shape A: moderate k, small d. Feasible everywhere.
	if err := CheckLevel1(spec, 256, 28); err != nil {
		t.Errorf("L1 shape A: %v", err)
	}
	// Shape B: large k. Infeasible at L1, feasible at L2+.
	if err := CheckLevel1(spec, 8192, 28); err == nil {
		t.Error("L1 shape B: want infeasible")
	}
	if err := CheckLevel2(spec, 8192, 28, 64); err != nil {
		t.Errorf("L2 shape B: %v", err)
	}
	// Shape C: large k AND large d. Infeasible at L2, feasible at L3.
	if err := CheckLevel2(spec, 2000, 196608, 64); err == nil {
		t.Error("L2 shape C: want infeasible")
	}
	if err := CheckLevel3(machine.MustSpec(4096), 2000, 196608, 1024); err != nil {
		t.Errorf("L3 shape C: %v", err)
	}
}

func TestConstraintErrorMessage(t *testing.T) {
	e := &ConstraintError{Constraint: "C1", Detail: "too big"}
	if !strings.Contains(e.Error(), "C1") || !strings.Contains(e.Error(), "too big") {
		t.Errorf("Error() = %q", e.Error())
	}
}
