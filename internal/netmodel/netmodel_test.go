package netmodel

import (
	"testing"

	"repro/internal/machine"
)

func TestNewValidates(t *testing.T) {
	spec := machine.MustSpec(1)
	spec.Nodes = 0
	if _, err := New(spec); err == nil {
		t.Error("New with invalid spec: want error")
	}
	if m := MustNew(machine.MustSpec(2)); m.spec.Nodes != 2 {
		t.Error("MustNew lost the spec")
	}
}

func TestMustNewPanics(t *testing.T) {
	spec := machine.MustSpec(1)
	spec.Nodes = -1
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(spec)
}

func TestBandwidthOrdering(t *testing.T) {
	m := MustNew(machine.MustSpec(512))
	intra := m.Bandwidth(machine.SameSupernode)
	inter := m.Bandwidth(machine.CrossSupernode)
	node := m.Bandwidth(machine.SameNode)
	if !(node > intra && intra > inter) {
		t.Errorf("bandwidth ordering violated: node=%g intra=%g inter=%g", node, intra, inter)
	}
	if unknown := m.Bandwidth(machine.Distance(99)); unknown != inter {
		t.Errorf("unknown distance bandwidth = %g, want slowest class %g", unknown, inter)
	}
}

func TestLatencyOrdering(t *testing.T) {
	m := MustNew(machine.MustSpec(512))
	if m.Latency(machine.SameNode) >= m.Latency(machine.SameSupernode) {
		t.Error("node-local latency should be below network latency")
	}
	if m.Latency(machine.SameSupernode) >= m.Latency(machine.CrossSupernode) {
		t.Error("intra-supernode latency should be below cross-supernode latency")
	}
}

func TestTransferTime(t *testing.T) {
	m := MustNew(machine.MustSpec(512))
	// Same node: CGs 0 and 1.
	tSame, err := m.TransferTime(0, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Same supernode: CG 0 and CG of node 200.
	tIntra, err := m.TransferTime(0, 200*4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Cross supernode: CG 0 and CG of node 300.
	tInter, err := m.TransferTime(0, 300*4, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !(tSame < tIntra && tIntra < tInter) {
		t.Errorf("transfer ordering violated: same=%g intra=%g inter=%g", tSame, tIntra, tInter)
	}
	// Zero bytes still pays latency.
	t0, err := m.TransferTime(0, 200*4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if t0 != m.Latency(machine.SameSupernode) {
		t.Errorf("zero-byte transfer = %g, want pure latency %g", t0, m.Latency(machine.SameSupernode))
	}
}

func TestTransferTimeErrors(t *testing.T) {
	m := MustNew(machine.MustSpec(2))
	if _, err := m.TransferTime(0, 1, -1); err == nil {
		t.Error("negative size: want error")
	}
	if _, err := m.TransferTime(0, 999, 10); err == nil {
		t.Error("bad rank: want error")
	}
}

func TestTransferTimeScalesWithBytes(t *testing.T) {
	m := MustNew(machine.MustSpec(512))
	small, _ := m.TransferTime(0, 8, 1<<10)
	big, _ := m.TransferTime(0, 8, 1<<24)
	if big <= small {
		t.Errorf("more bytes should take longer: %g vs %g", big, small)
	}
}

func TestGroupDistance(t *testing.T) {
	m := MustNew(machine.MustSpec(512))
	d, err := m.GroupDistance(0, 4)
	if err != nil || d != machine.SameNode {
		t.Errorf("GroupDistance(0,4) = %v,%v; want same-node", d, err)
	}
	d, err = m.GroupDistance(0, 1024)
	if err != nil || d != machine.SameSupernode {
		t.Errorf("GroupDistance(0,1024) = %v,%v; want same-supernode", d, err)
	}
	d, err = m.GroupDistance(0, 1025)
	if err != nil || d != machine.CrossSupernode {
		t.Errorf("GroupDistance(0,1025) = %v,%v; want cross-supernode", d, err)
	}
	if _, err = m.GroupDistance(0, 0); err == nil {
		t.Error("empty group: want error")
	}
}

// windowDegrader doubles the serialization cost of every link inside
// the virtual window [0.1, 0.2).
type windowDegrader struct{}

func (windowDegrader) LinkFactor(src, dst int, at float64) float64 {
	if at >= 0.1 && at < 0.2 {
		return 2
	}
	return 1
}

func TestTransferTimeAtDegraded(t *testing.T) {
	m := MustNew(machine.MustSpec(512))
	d := m.Degraded(windowDegrader{})
	clean, err := m.TransferTime(0, 8, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	outside, err := d.TransferTimeAt(0, 8, 1<<20, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if outside != clean {
		t.Errorf("outside the window: %g, want the clean time %g", outside, clean)
	}
	inside, err := d.TransferTimeAt(0, 8, 1<<20, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if inside <= clean {
		t.Errorf("inside the window: %g, should exceed the clean time %g", inside, clean)
	}
	// Only the serialization term doubles; latency is unchanged.
	dclass, err := m.spec.DistanceBetween(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	lat := m.Latency(dclass)
	if got, want := inside-lat, 2*(clean-lat); got < want*0.999 || got > want*1.001 {
		t.Errorf("degraded serialization = %g, want %g", got, want)
	}
	// Latency-only messages are immune to bandwidth degradation.
	zeroIn, _ := d.TransferTimeAt(0, 8, 0, 0.15)
	zeroOut, _ := m.TransferTime(0, 8, 0)
	if zeroIn != zeroOut {
		t.Errorf("zero-byte message degraded: %g vs %g", zeroIn, zeroOut)
	}
	if m.Degraded(nil) != m {
		t.Error("Degraded(nil) should return the receiver")
	}
	if _, err := d.TransferTimeAt(0, 8, -1, 0); err == nil {
		t.Error("negative size: want error")
	}
}
