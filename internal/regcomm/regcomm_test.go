package regcomm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/trace"
)

func spec() *machine.Spec { return machine.MustSpec(1) }

func TestModelCosts(t *testing.T) {
	m := NewModel(spec())
	if m.P2PTime(0) != spec().BW.RegLatency {
		t.Errorf("P2PTime(0) = %g, want pure latency", m.P2PTime(0))
	}
	if m.P2PTime(100) <= m.P2PTime(10) {
		t.Error("P2PTime must grow with payload")
	}
	if m.StepTime(-5) != m.StepTime(0) {
		t.Error("negative elems should clamp to zero payload")
	}
	if got, want := m.AllReduceTime(64), 6*m.StepTime(64); got != want {
		t.Errorf("AllReduceTime = %g, want %g", got, want)
	}
}

func TestMeshGeometry(t *testing.T) {
	mesh := NewMesh(spec(), nil)
	var mu sync.Mutex
	seen := make(map[int]bool)
	mesh.Run(func(c *CPE) {
		mu.Lock()
		seen[c.ID()] = true
		mu.Unlock()
	})
	for id := 0; id < machine.CPEsPerCG; id++ {
		if !seen[id] {
			t.Errorf("CPE %d did not run", id)
		}
	}
	if len(seen) != machine.CPEsPerCG {
		t.Fatalf("ran %d CPEs, want %d", len(seen), machine.CPEsPerCG)
	}
}

func TestSendRecvRowBus(t *testing.T) {
	mesh := NewMesh(spec(), trace.NewStats())
	var got []float64
	var gotInts []int64
	mesh.Run(func(c *CPE) {
		switch c.ID() {
		case 0:
			if err := c.Send(3, []float64{1.5, 2.5}, []int64{7}); err != nil {
				t.Errorf("Send: %v", err)
			}
		case 3:
			data, ints, err := c.Recv(0)
			if err != nil {
				t.Errorf("Recv: %v", err)
			}
			got, gotInts = data, ints
		}
	})
	if len(got) != 2 || got[0] != 1.5 || got[1] != 2.5 {
		t.Errorf("payload = %v", got)
	}
	if len(gotInts) != 1 || gotInts[0] != 7 {
		t.Errorf("ints = %v", gotInts)
	}
}

func TestSendRejectsDiagonal(t *testing.T) {
	mesh := NewMesh(spec(), nil)
	mesh.Run(func(c *CPE) {
		if c.ID() != 0 {
			return
		}
		// CPE 0 (row 0, col 0) to CPE 9 (row 1, col 1): no shared bus.
		if err := c.Send(9, []float64{1}, nil); err == nil {
			t.Error("diagonal send must be rejected")
		}
		// Column bus to CPE 8 (row 1, col 0) is legal but unreceived
		// here; just validate the bus check path separately.
		if err := c.Send(-1, nil, nil); err == nil {
			t.Error("out-of-range send must be rejected")
		}
		if err := c.Send(0, nil, nil); err == nil {
			t.Error("self send must be rejected")
		}
	})
}

func TestRecvRejectsBadSource(t *testing.T) {
	mesh := NewMesh(spec(), nil)
	mesh.Run(func(c *CPE) {
		if c.ID() != 0 {
			return
		}
		if _, _, err := c.Recv(-1); err == nil {
			t.Error("Recv(-1) must fail")
		}
		if _, _, err := c.Recv(64); err == nil {
			t.Error("Recv(64) must fail")
		}
	})
}

func TestRecvInterleavedSenders(t *testing.T) {
	// CPE 0 receives from two row neighbours in a fixed order even if
	// messages arrive interleaved; held messages must be redelivered.
	mesh := NewMesh(spec(), nil)
	var first, second []float64
	mesh.Run(func(c *CPE) {
		switch c.ID() {
		case 1:
			_ = c.Send(0, []float64{11}, nil)
		case 2:
			_ = c.Send(0, []float64{22}, nil)
		case 0:
			// Deliberately receive in reverse of the likely arrival.
			d2, _, err := c.Recv(2)
			if err != nil {
				t.Errorf("Recv(2): %v", err)
			}
			d1, _, err := c.Recv(1)
			if err != nil {
				t.Errorf("Recv(1): %v", err)
			}
			first, second = d2, d1
		}
	})
	if len(first) != 1 || first[0] != 22 {
		t.Errorf("from 2: %v", first)
	}
	if len(second) != 1 || second[0] != 11 {
		t.Errorf("from 1: %v", second)
	}
}

func TestClockReconciliation(t *testing.T) {
	mesh := NewMesh(spec(), nil)
	var recvTime float64
	mesh.Run(func(c *CPE) {
		switch c.ID() {
		case 0:
			c.Clock().Advance(1.0) // sender is late
			_ = c.Send(1, []float64{1}, nil)
		case 1:
			_, _, _ = c.Recv(0)
			recvTime = c.Clock().Now()
		}
	})
	if recvTime < 1.0 {
		t.Errorf("receive completed at %g, before the send was issued", recvTime)
	}
}

func TestAllReduceSumsEverywhere(t *testing.T) {
	mesh := NewMesh(spec(), trace.NewStats())
	results := make([][]float64, machine.CPEsPerCG)
	countRes := make([][]int64, machine.CPEsPerCG)
	tEnd := mesh.Run(func(c *CPE) {
		buf := []float64{float64(c.ID()), 1}
		cnt := []int64{int64(c.ID() % 4)}
		if err := c.AllReduce(buf, cnt); err != nil {
			t.Errorf("AllReduce on %d: %v", c.ID(), err)
		}
		results[c.ID()] = buf
		countRes[c.ID()] = cnt
	})
	wantSum := float64(63 * 64 / 2)
	wantCnt := int64(16 * (0 + 1 + 2 + 3))
	for id, r := range results {
		if len(r) != 2 || r[0] != wantSum || r[1] != 64 {
			t.Errorf("CPE %d result %v, want [%g 64]", id, r, wantSum)
		}
		if countRes[id][0] != wantCnt {
			t.Errorf("CPE %d counts %v, want %d", id, countRes[id], wantCnt)
		}
	}
	if tEnd <= 0 {
		t.Error("allreduce should consume virtual time")
	}
}

func TestAllReduceBitwiseIdentical(t *testing.T) {
	// Commutativity of IEEE addition makes recursive doubling produce
	// bitwise-identical results on every CPE — the property the engines
	// rely on for deterministic centroid updates.
	mesh := NewMesh(spec(), nil)
	results := make([][]float64, machine.CPEsPerCG)
	mesh.Run(func(c *CPE) {
		buf := []float64{math.Sqrt(float64(c.ID()+1)) * 1e-3, float64(c.ID()) * math.Pi}
		if err := c.AllReduce(buf, nil); err != nil {
			t.Errorf("AllReduce: %v", err)
		}
		results[c.ID()] = buf
	})
	for id := 1; id < machine.CPEsPerCG; id++ {
		if results[id][0] != results[0][0] || results[id][1] != results[0][1] {
			t.Fatalf("CPE %d result %v differs from CPE 0 %v", id, results[id], results[0])
		}
	}
}

func TestAllReduceProperty(t *testing.T) {
	// Property: for random per-CPE integer payloads the allreduce total
	// equals the direct sum (exact in float64 for small ints).
	f := func(seed uint32) bool {
		mesh := NewMesh(spec(), nil)
		want := 0.0
		vals := make([]float64, machine.CPEsPerCG)
		s := seed
		for i := range vals {
			s = s*1664525 + 1013904223
			vals[i] = float64(s % 1000)
			want += vals[i]
		}
		ok := true
		var mu sync.Mutex
		mesh.Run(func(c *CPE) {
			buf := []float64{vals[c.ID()]}
			if err := c.AllReduce(buf, nil); err != nil || buf[0] != want {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStatsRecorded(t *testing.T) {
	stats := trace.NewStats()
	mesh := NewMesh(spec(), stats)
	mesh.Run(func(c *CPE) {
		if err := c.AllReduce([]float64{1, 2, 3}, nil); err != nil {
			t.Errorf("AllReduce: %v", err)
		}
	})
	snap := stats.Snapshot()
	// 64 CPEs x 6 steps, 3 elements each.
	if snap.RegTransfers != 64*6 {
		t.Errorf("RegTransfers = %d, want %d", snap.RegTransfers, 64*6)
	}
	if snap.RegBytes == 0 {
		t.Error("RegBytes not recorded")
	}
}

func TestPartnerStaysOnBus(t *testing.T) {
	// Property: every recursive-doubling partner shares a bus, along the
	// row for the first three steps and down the column for the rest.
	for id := 0; id < machine.CPEsPerCG; id++ {
		for step := 0; step < allReduceSteps; step++ {
			p := partner(id, step)
			if p < 0 || p >= 64 || p == id || !sameBus(id, p) {
				t.Errorf("CPE %d step %d: bad partner %d", id, step, p)
			}
			if sameRow := p/machine.MeshSide == id/machine.MeshSide; sameRow != (step < 3) {
				t.Errorf("CPE %d step %d: partner %d on the wrong bus", id, step, p)
			}
			// Symmetry: partner's partner is self.
			if q := partner(p, step); q != id {
				t.Errorf("partner not symmetric: %d -> %d -> %d", id, p, q)
			}
		}
	}
}
