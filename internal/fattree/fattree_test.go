package fattree

import (
	"testing"

	"repro/internal/machine"
)

func TestNewValidates(t *testing.T) {
	bad := machine.MustSpec(1)
	bad.Nodes = 0
	if _, err := New(bad); err == nil {
		t.Error("invalid spec accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(bad)
}

func TestFlowTimeClasses(t *testing.T) {
	m := MustNew(machine.MustSpec(1024))
	const bytes = 1 << 20
	node, err := m.FlowTime(1, bytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	board, err := m.FlowTime(machine.CGsPerNode, bytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := m.FlowTime(cgsPerSupernode, bytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(node < board && board < cross) {
		t.Errorf("class ordering violated: node=%g board=%g cross=%g", node, board, cross)
	}
}

func TestFlowTimeContention(t *testing.T) {
	m := MustNew(machine.MustSpec(1024))
	const bytes = 1 << 20
	solo, err := m.FlowTime(cgsPerSupernode, bytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 64 concurrent flows exactly saturate the 4:1-tapered uplink
	// (256 ports / 4); beyond that each flow slows down.
	crowded, err := m.FlowTime(cgsPerSupernode, bytes, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if crowded <= solo {
		t.Errorf("1024 flows (%g) not slower than 1 (%g)", crowded, solo)
	}
	// Within a board there is no shared-uplink contention.
	a, _ := m.FlowTime(machine.CGsPerNode, bytes, 1)
	b, _ := m.FlowTime(machine.CGsPerNode, bytes, 1024)
	if a != b {
		t.Errorf("intra-board flows contended: %g vs %g", a, b)
	}
	if _, err := m.FlowTime(0, 1, 1); err == nil {
		t.Error("stride 0 accepted")
	}
	if _, err := m.FlowTime(1, -1, 1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestAllReduceTimeValidation(t *testing.T) {
	m := MustNew(machine.MustSpec(8))
	if _, err := m.ConcurrentAllReduceTime(0, 0, 10, 1); err == nil {
		t.Error("count 0 accepted")
	}
	if _, err := m.ConcurrentAllReduceTime(0, 1000, 10, 1); err == nil {
		t.Error("range beyond CGs accepted")
	}
	if _, err := m.ConcurrentAllReduceTime(0, 4, -1, 1); err == nil {
		t.Error("negative payload accepted")
	}
	single, err := m.ConcurrentAllReduceTime(0, 1, 100, 1)
	if err != nil || single != 0 {
		t.Errorf("single-rank allreduce = %g (%v), want 0", single, err)
	}
}

func TestAllReduceScalesWithSpan(t *testing.T) {
	m := MustNew(machine.MustSpec(2048)) // 8 supernodes
	const elems = 1 << 20
	within, err := m.ConcurrentAllReduceTime(0, 1024, elems, 1) // one supernode
	if err != nil {
		t.Fatal(err)
	}
	across, err := m.ConcurrentAllReduceTime(0, 8192, elems, 1) // all 8
	if err != nil {
		t.Fatal(err)
	}
	if across <= within {
		t.Errorf("8-supernode allreduce (%g) not slower than 1-supernode (%g)", across, within)
	}
}

func TestSingleBinomialBarelyContends(t *testing.T) {
	// One binomial tree places few flows on the wide strides: the fat
	// tree absorbs it.
	m := MustNew(machine.MustSpec(2048))
	f, err := m.ContentionFactor(0, 8192, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f > 1.5 {
		t.Errorf("single binomial contention factor = %g, want ~1", f)
	}
}

func TestContentionFactorConcurrent(t *testing.T) {
	m := MustNew(machine.MustSpec(2048))
	// Inside one supernode: no uplink sharing regardless of
	// concurrency.
	f, err := m.ContentionFactor(0, 1024, 1<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Errorf("intra-supernode contention factor = %g, want 1", f)
	}
	// The Level-3 Update pattern: hundreds of per-slice allreduces at
	// once across all supernodes — the uplinks saturate on the wide
	// strides. The whole-collective factor stays moderate because the
	// many intra-board levels are uncontended, but it must be clearly
	// above 1.
	f, err = m.ContentionFactor(0, 8192, 1<<20, 512)
	if err != nil {
		t.Fatal(err)
	}
	if f <= 1.2 {
		t.Errorf("concurrent cross-supernode contention factor = %g, want > 1.2", f)
	}
	// The cross-router level itself contends hard: 256 flows per
	// uplink slow a single message several-fold.
	solo, err := m.FlowTime(cgsPerSupernode, 1<<22, 1)
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := m.FlowTime(cgsPerSupernode, 1<<22, 256)
	if err != nil {
		t.Fatal(err)
	}
	if crowded < 3*solo {
		t.Errorf("per-level contention too weak: %g vs %g", crowded, solo)
	}
	if f > 1000 {
		t.Errorf("contention factor %g implausibly large", f)
	}
	// More concurrency, more contention.
	f2, err := m.ContentionFactor(0, 8192, 1<<20, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if f2 <= f {
		t.Errorf("doubling concurrency did not raise contention: %g vs %g", f2, f)
	}
}

func TestContentionVanishesForTinyPayloads(t *testing.T) {
	// Latency-dominated messages see little contention.
	m := MustNew(machine.MustSpec(2048))
	f, err := m.ContentionFactor(0, 8192, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if f > 1.5 {
		t.Errorf("tiny-payload contention factor = %g", f)
	}
}

func TestConcurrentAllReduceValidation(t *testing.T) {
	m := MustNew(machine.MustSpec(8))
	if _, err := m.ConcurrentAllReduceTime(0, 4, 10, 0); err == nil {
		t.Error("concurrent=0 accepted")
	}
}
