package machine

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSpecDefaults(t *testing.T) {
	s, err := NewSpec(2)
	if err != nil {
		t.Fatalf("NewSpec(2): %v", err)
	}
	if s.Nodes != 2 {
		t.Errorf("Nodes = %d, want 2", s.Nodes)
	}
	if s.LDMBytesPerCPE != 64*1024 {
		t.Errorf("LDMBytesPerCPE = %d, want 65536", s.LDMBytesPerCPE)
	}
	if got := s.CGs(); got != 8 {
		t.Errorf("CGs() = %d, want 8", got)
	}
	if got := s.CPEs(); got != 512 {
		t.Errorf("CPEs() = %d, want 512", got)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestNewSpecRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := NewSpec(n); err == nil {
			t.Errorf("NewSpec(%d): want error, got nil", n)
		}
	}
}

func TestMustSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSpec(0) did not panic")
		}
	}()
	MustSpec(0)
}

func TestPaperScaleCoreCount(t *testing.T) {
	// The paper's headline configuration: 4,096 nodes. The paper reports
	// 1,064,496 cores; the architectural accounting (65 cores per CG,
	// 4 CGs per node) gives 1,064,960. We reproduce the architecture.
	s := MustSpec(4096)
	if got := s.CPEs(); got != 1048576 {
		t.Errorf("CPEs() = %d, want 1048576", got)
	}
	if got := s.Supernodes(); got != 16 {
		t.Errorf("Supernodes() = %d, want 16", got)
	}
}

func TestSupernodesRoundsUp(t *testing.T) {
	cases := []struct{ nodes, want int }{
		{1, 1}, {255, 1}, {256, 1}, {257, 2}, {512, 2}, {513, 3},
	}
	for _, c := range cases {
		s := MustSpec(c.nodes)
		if got := s.Supernodes(); got != c.want {
			t.Errorf("Supernodes(%d nodes) = %d, want %d", c.nodes, got, c.want)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero nodes", func(s *Spec) { s.Nodes = 0 }},
		{"zero ldm", func(s *Spec) { s.LDMBytesPerCPE = 0 }},
		{"zero dma", func(s *Spec) { s.BW.DMA = 0 }},
		{"negative regcomm", func(s *Spec) { s.BW.RegComm = -1 }},
		{"zero network", func(s *Spec) { s.BW.Network = 0 }},
		{"zero intra factor", func(s *Spec) { s.BW.IntraSupernodeFactor = 0 }},
		{"zero inter factor", func(s *Spec) { s.BW.InterSupernodeFactor = 0 }},
		{"zero flops", func(s *Spec) { s.CPU.FlopsPerCPE = 0 }},
	}
	for _, m := range mutations {
		s := MustSpec(4)
		m.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", m.name)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err == nil {
		t.Error("nil spec: Validate() = nil, want error")
	}
}

func TestPlaceCG(t *testing.T) {
	s := MustSpec(300) // spans two supernodes
	cases := []struct {
		cg   int
		want Place
	}{
		{0, Place{CG: 0, LocalCG: 0, Node: 0, Supernode: 0}},
		{3, Place{CG: 3, LocalCG: 3, Node: 0, Supernode: 0}},
		{4, Place{CG: 4, LocalCG: 0, Node: 1, Supernode: 0}},
		{1023, Place{CG: 1023, LocalCG: 3, Node: 255, Supernode: 0}},
		{1024, Place{CG: 1024, LocalCG: 0, Node: 256, Supernode: 1}},
		{1199, Place{CG: 1199, LocalCG: 3, Node: 299, Supernode: 1}},
	}
	for _, c := range cases {
		got, err := s.PlaceCG(c.cg)
		if err != nil {
			t.Fatalf("PlaceCG(%d): %v", c.cg, err)
		}
		if got != c.want {
			t.Errorf("PlaceCG(%d) = %+v, want %+v", c.cg, got, c.want)
		}
	}
}

func TestPlaceCGRange(t *testing.T) {
	s := MustSpec(2)
	for _, cg := range []int{-1, 8, 1000} {
		if _, err := s.PlaceCG(cg); err == nil {
			t.Errorf("PlaceCG(%d): want error, got nil", cg)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPlaceCG(-1) did not panic")
		}
	}()
	s.MustPlaceCG(-1)
}

func TestDistanceBetween(t *testing.T) {
	s := MustSpec(300)
	cases := []struct {
		a, b int
		want Distance
	}{
		{0, 0, SameCG},
		{0, 3, SameNode},
		{0, 4, SameSupernode},
		{5, 1023, SameSupernode},
		{0, 1024, CrossSupernode},
		{1024, 1199, SameSupernode},
	}
	for _, c := range cases {
		got, err := s.DistanceBetween(c.a, c.b)
		if err != nil {
			t.Fatalf("DistanceBetween(%d,%d): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("DistanceBetween(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if _, err := s.DistanceBetween(-1, 0); err == nil {
		t.Error("DistanceBetween(-1,0): want error")
	}
	if _, err := s.DistanceBetween(0, 99999); err == nil {
		t.Error("DistanceBetween(0,99999): want error")
	}
}

func TestDistanceSymmetry(t *testing.T) {
	s := MustSpec(520)
	f := func(a, b uint16) bool {
		x := int(a) % s.CGs()
		y := int(b) % s.CGs()
		d1, err1 := s.DistanceBetween(x, y)
		d2, err2 := s.DistanceBetween(y, x)
		return err1 == nil && err2 == nil && d1 == d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistanceString(t *testing.T) {
	for d, want := range map[Distance]string{
		SameCG:         "same-cg",
		SameNode:       "same-node",
		SameSupernode:  "same-supernode",
		CrossSupernode: "cross-supernode",
		Distance(42):   "distance(42)",
	} {
		if got := d.String(); got != want {
			t.Errorf("Distance(%d).String() = %q, want %q", int(d), got, want)
		}
	}
}

func TestSpecString(t *testing.T) {
	s := MustSpec(4)
	str := s.String()
	for _, want := range []string{"nodes=4", "cgs=16", "cpes=1024"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q, missing %q", str, want)
		}
	}
}

func TestDefaultBandwidthsArePublishedValues(t *testing.T) {
	bw := DefaultBandwidths()
	if bw.DMA != 32e9 {
		t.Errorf("DMA = %g, want 32e9", bw.DMA)
	}
	if bw.RegComm != 46.4e9 {
		t.Errorf("RegComm = %g, want 46.4e9", bw.RegComm)
	}
	if bw.Network != 16e9 {
		t.Errorf("Network = %g, want 16e9", bw.Network)
	}
	if bw.IntraSupernodeFactor <= bw.InterSupernodeFactor {
		t.Error("intra-supernode communication should be more efficient than inter-supernode")
	}
}

func TestRegCommFasterThanDMA(t *testing.T) {
	// Section II.A: register communication offers a 3x-4x speedup over
	// DMA/MPI for the AllReduce bottleneck; at minimum the theoretical
	// bandwidth ordering must hold.
	bw := DefaultBandwidths()
	if bw.RegComm <= bw.DMA {
		t.Errorf("RegComm (%g) should exceed DMA (%g)", bw.RegComm, bw.DMA)
	}
	if bw.DMA <= bw.Network {
		t.Errorf("DMA (%g) should exceed Network (%g)", bw.DMA, bw.Network)
	}
}
