package core

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/trace"
)

// countingSource counts Sample calls per index. Level 3's ranks call it
// from many goroutines at once.
type countingSource struct {
	dataset.Source
	calls []atomic.Int64
}

func newCountingSource(src dataset.Source) *countingSource {
	return &countingSource{Source: src, calls: make([]atomic.Int64, src.N())}
}

func (c *countingSource) Sample(i int, buf []float64) {
	c.calls[i].Add(1)
	c.Source.Sample(i, buf)
}

// counts returns the total calls and the most calls on one index.
func (c *countingSource) counts() (total, most int64) {
	for i := range c.calls {
		v := c.calls[i].Load()
		total += v
		most = max(most, v)
	}
	return total, most
}

// TestLevel3StagesEachBatchOncePerGroup: a CG group generates each
// visited sample once per iteration, into its shared stage, for all
// its members' assigns and the winning member's update — one Sample
// call per sample per iteration, not m'+1 — under both drivers, and
// the results still equal sequential Lloyd. A strided row stages only
// the visited samples. The fault rows are faultcheck's two Level-3
// plans: a crash with re-planning and a crash with DropLostShards.
func TestLevel3StagesEachBatchOncePerGroup(t *testing.T) {
	const n, d = 512, 8
	g := mixture(t, n, d, 4)
	cases := []struct {
		name     string
		k        int
		iters    int
		stride   int
		faults   string
		droplost bool
	}{
		{name: "k8", k: 8, iters: 3},
		// Every third sample of each group's share: 86 of 256, in
		// batches of 7 whose indices step by 3.
		{name: "k8-stride3", k: 8, iters: 3, stride: 3},
		// k < m': position 3 holds no centroids and never stages.
		{name: "k3", k: 3, iters: 3},
		{name: "crash-replan", k: 8, iters: 10, faults: "seed=5; crash=5@2e-5; msg=0.01; retries=32"},
		{name: "crash-droplost", k: 8, iters: 10, faults: "crash=3@2e-5", droplost: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.ParsePlan(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Spec: machine.MustSpec(2), Level: Level3, K: tc.k, MPrimeGroup: 4,
				BatchSamples: 7, MaxIters: tc.iters, Seed: 3, SampleStride: tc.stride,
				Faults: plan, CheckpointInterval: 2, DropLostShards: tc.droplost,
			}
			init := newCountingSource(g)
			if _, err := initialCentroids(cfg.withDefaults(), init); err != nil {
				t.Fatal(err)
			}
			initReads, _ := init.counts()

			var first *Result
			for _, sched := range []bool{false, true} {
				cfg.Sched = sched
				cfg.Stats = trace.NewStats()
				src := newCountingSource(g)
				res, err := Run(cfg, src)
				if err != nil {
					t.Fatal(err)
				}
				total, most := src.counts()
				if plan.Empty() {
					// Init reads, then per iteration one staged read per
					// visited sample for the group.
					visited := n
					if tc.stride > 1 {
						visited = 2 * ceilDiv(n/2, tc.stride)
					}
					if want := initReads + int64(res.Iters*visited); total != want {
						t.Errorf("sched=%v: %d Sample calls (up to %d on one index), want %d",
							sched, total, most, want)
					}
				} else {
					if res.Recovery == nil || res.Recovery.Replans < 1 {
						t.Fatalf("sched=%v: the crash caused no re-plan", sched)
					}
					// Every re-plan redoes at most CheckpointInterval
					// iterations, each attempt reading a sample once.
					attempts := res.Iters + res.Recovery.Replans*cfg.CheckpointInterval
					if limit := 1 + int64(attempts); most > limit {
						t.Errorf("sched=%v: %d Sample calls on one index, want at most %d", sched, most, limit)
					}
				}
				if first == nil {
					first = res
					continue
				}
				if !reflect.DeepEqual(res.Assign, first.Assign) {
					t.Fatal("assignments differ between drivers")
				}
				compareBits(t, "centroid", res.Centroids, first.Centroids)
				compareBits(t, "iter time", res.IterTimes, first.IterTimes)
				if !reflect.DeepEqual(res.Recovery, first.Recovery) {
					t.Fatalf("recovery reports differ between drivers: %+v vs %+v", res.Recovery, first.Recovery)
				}
			}
			if !tc.droplost && tc.stride == 0 {
				cfg.Sched = false
				agreeWithLloyd(t, cfg, g)
			}
		})
	}
}
