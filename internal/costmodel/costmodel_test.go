package costmodel

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
)

func spec() *machine.Spec { return machine.MustSpec(1) }

func TestCostSeconds(t *testing.T) {
	c := Cost{ReadSeconds: 1, ComputeSeconds: 2, RegSeconds: 3}
	if c.Seconds() != 6 {
		t.Errorf("Seconds = %g", c.Seconds())
	}
}

func TestDMASecondsChunked(t *testing.T) {
	s := spec()
	if got := dmaSeconds(s, 0); got != 0 {
		t.Errorf("zero elems cost %g", got)
	}
	one := dmaSeconds(s, 1)
	if one <= s.BW.DMALatency {
		t.Errorf("single element %g should include latency", one)
	}
	// Pipelined streaming: one latency, per-chunk issue overhead, plus
	// the bandwidth term.
	big := dmaSeconds(s, 10*DMAChunkElems)
	want := s.BW.DMALatency + 10*DMAIssueSeconds + float64(10*DMAChunkElems*4)/s.BW.DMA
	if diff := big - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("dmaSeconds = %g, want %g", big, want)
	}
}

func TestLevel1Monotonicity(t *testing.T) {
	base := Level1(spec(), 10000, 64, 32)
	moreN := Level1(spec(), 20000, 64, 32)
	moreK := Level1(spec(), 10000, 128, 32)
	moreD := Level1(spec(), 10000, 64, 64)
	if moreN.Seconds() <= base.Seconds() {
		t.Error("more samples should cost more")
	}
	if moreK.Seconds() <= base.Seconds() {
		t.Error("more centroids should cost more")
	}
	if moreD.Seconds() <= base.Seconds() {
		t.Error("more dimensions should cost more")
	}
	if base.Flops != int64(10000)*32*(3*64+1) {
		t.Errorf("Flops = %d", base.Flops)
	}
}

func TestLevel1EmptyRank(t *testing.T) {
	c := Level1(spec(), 0, 64, 32)
	if c.ComputeSeconds != 0 || c.Flops != 0 {
		t.Errorf("empty rank compute = %+v", c)
	}
}

func TestLevel2RestreamGrowsWithD(t *testing.T) {
	// The Figure-7 mechanism: at fixed k, Level-2 read time grows
	// super-linearly in d because the resident batch shrinks while the
	// re-streamed centroid volume grows.
	s := machine.MustSpec(128)
	n := 1265723 / 512 // per CG at 128 nodes
	r1 := Level2(s, n, 2000, 1024, 1, 256)
	r2 := Level2(s, n, 2000, 2048, 1, 256)
	r4 := Level2(s, n, 2000, 4096, 1, 256)
	if !(r1.ReadSeconds < r2.ReadSeconds && r2.ReadSeconds < r4.ReadSeconds) {
		t.Fatalf("read times not increasing: %g %g %g", r1.ReadSeconds, r2.ReadSeconds, r4.ReadSeconds)
	}
	// Super-linear: doubling d from 2048 to 4096 should more than
	// double the read time.
	if r4.ReadSeconds < 2*r2.ReadSeconds {
		t.Errorf("restream not super-linear: d=2048 %g, d=4096 %g", r2.ReadSeconds, r4.ReadSeconds)
	}
}

func TestLevel2NoRestreamWhenResident(t *testing.T) {
	// Small d: whole pass fits; DMA is just stream + one load.
	s := spec()
	c := Level2(s, 640, 64, 4, 8, 256)
	wantStream := int64(640) * 4 * 8
	wantLoad := int64(64) * int64(ceilDiv(64, 8)) * 4
	if c.DMAElems != wantStream+wantLoad {
		t.Errorf("DMAElems = %d, want %d (no restream)", c.DMAElems, wantStream+wantLoad)
	}
}

func TestLevel3TiledCostsMore(t *testing.T) {
	s := machine.MustSpec(2)
	resident := Level3(s, 10000, 2000, 4096, 8, 256, false)
	tiled := Level3(s, 10000, 2000, 4096, 8, 256, true)
	if tiled.ReadSeconds <= resident.ReadSeconds {
		t.Errorf("tiled read %g should exceed resident %g", tiled.ReadSeconds, resident.ReadSeconds)
	}
	if tiled.ComputeSeconds != resident.ComputeSeconds {
		t.Error("tiling must not change compute")
	}
}

func TestLevel3RegIndependentOfD(t *testing.T) {
	// The mesh reduce combines one partial distance per centroid per
	// sample regardless of d.
	a := Level3(spec(), 5000, 512, 1024, 4, 256, false)
	b := Level3(spec(), 5000, 512, 8192, 4, 256, false)
	if a.RegSeconds != b.RegSeconds {
		t.Errorf("reg time depends on d: %g vs %g", a.RegSeconds, b.RegSeconds)
	}
}

func TestFigure7Crossover(t *testing.T) {
	// The headline comparison: k=2000, n=1,265,723, 128 nodes.
	// Level 2 must win at small d, Level 3 at large d, with the
	// crossover in the neighbourhood the paper reports (~2560).
	s := machine.MustSpec(128)
	nLocalL2 := 1265723 / 512
	level3Time := func(d int) float64 {
		// Match the planner: smallest power-of-two resident group.
		for m := 1; m <= 512; m *= 2 {
			kLocal := ceilDiv(2000, m)
			dStripe := ceilDiv(d, 64)
			if dStripe*(1+2*kLocal)+kLocal <= 16384 {
				groups := 512 / m
				return Level3(s, ceilDiv(1265723, groups), 2000, d, m, 256, false).Seconds()
			}
		}
		t.Fatalf("no resident plan for d=%d", d)
		return 0
	}
	dSmall, dLarge := 1024, 4096
	l2Small := Level2(s, nLocalL2, 2000, dSmall, 1, 256).Seconds()
	l3Small := level3Time(dSmall)
	if l2Small >= l3Small {
		t.Errorf("at d=%d Level 2 (%g) should beat Level 3 (%g)", dSmall, l2Small, l3Small)
	}
	l2Large := Level2(s, nLocalL2, 2000, dLarge, 1, 256).Seconds()
	l3Large := level3Time(dLarge)
	if l3Large >= l2Large {
		t.Errorf("at d=%d Level 3 (%g) should beat Level 2 (%g)", dLarge, l3Large, l2Large)
	}
}

func TestLog2Ceil(t *testing.T) {
	for _, c := range []struct{ in, want int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {64, 6}, {65, 7}} {
		if got := log2Ceil(c.in); got != c.want {
			t.Errorf("log2Ceil(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCostsNonNegativeProperty(t *testing.T) {
	s := spec()
	f := func(nRaw, kRaw, dRaw uint16) bool {
		n := int(nRaw)%100000 + 1
		k := int(kRaw)%1000 + 1
		d := int(dRaw)%8192 + 1
		c1 := Level1(s, n, k, d)
		c2 := Level2(s, n, k, d, 8, 256)
		c3 := Level3(s, n, k, d, 4, 256, true)
		for _, c := range []Cost{c1, c2, c3} {
			if c.Seconds() <= 0 || c.DMAElems <= 0 || c.Flops <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
